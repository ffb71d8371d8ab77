"""Decision procedures for constructive master-modality logics, their
transitive extensions, and their classical targets."""

from .relmodel import (
    BiModel,
    ModelViolation,
    PdlModel,
    Relation,
    dump_model,
    load_model,
    rel_compose,
    rel_star,
    validate,
)
from .semantics import pdl_satisfies, satisfies
from .solver import Verdict, decide, fl_closure, pdl_satisfiable, pdl_valid
from .syntax import (
    Formula,
    FragmentTag,
    PdlFormula,
    Program,
    check_fragment,
    formula_size,
    parse_formula,
    parse_pdl,
    render,
    subformulas,
    variables,
)
from .translate import iota, kappa, omega, tau

__version__ = "0.1.0"

__all__ = [
    "BiModel",
    "Formula",
    "FragmentTag",
    "ModelViolation",
    "PdlFormula",
    "PdlModel",
    "Program",
    "Relation",
    "Verdict",
    "check_fragment",
    "decide",
    "dump_model",
    "fl_closure",
    "formula_size",
    "iota",
    "kappa",
    "load_model",
    "omega",
    "parse_formula",
    "parse_pdl",
    "pdl_satisfiable",
    "pdl_satisfies",
    "pdl_valid",
    "rel_compose",
    "rel_star",
    "render",
    "satisfies",
    "subformulas",
    "tau",
    "validate",
    "variables",
]
