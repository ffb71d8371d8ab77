"""Satisfaction over finite models.

Extensions are computed bottom-up, once per distinct subformula (by
`syntax.images`, from a table of clauses), as world bitmasks, which makes
truth persistence and validity checks set operations.  The master box reads
over the iterated relation (pre;mod)*; the tests check that the coarser
reading over (pre;mod*)* agrees with it on CK models.
"""

from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

from .relmodel import (
    BiModel,
    ModelViolation,
    PdlModel,
    Relation,
    rel_compose,
    rel_star,
    validate,
)
from .syntax import (
    Atom,
    And,
    Bot,
    Box,
    BoxP,
    BoxStar,
    Comp,
    Dia,
    DiaStar,
    Formula,
    Imp,
    Neg,
    Or,
    PAtom,
    PdlFormula,
    Program,
    Star,
    images,
)


class InvalidModelError(ValueError):
    def __init__(self, violations: list[ModelViolation]):
        super().__init__(f"model violates {violations[0].condition} "
                         f"(and {len(violations) - 1} more)" if len(violations) > 1
                         else f"model violates {violations[0].condition}")
        self.violations = violations


class UnknownProgramAtomError(ValueError):
    pass


class _Frame:
    """A bi-model and its relations pre;mod, mod* and (pre;mod)*, each built
    the first time a rule reads it."""

    def __init__(self, m: BiModel):
        self.m = m

    pre_mod = cached_property(lambda self: rel_compose(self.m.pre, self.m.mod))
    mod_star = cached_property(lambda self: rel_star(self.m.mod))
    box_star = cached_property(lambda self: rel_star(self.pre_mod))


# The constructive clauses, one rule per node class, over a `_Frame`.
_EXTENSION = {
    Bot: lambda g, ext, c: c.m.bot,
    Atom: lambda g, ext, c: c.m.val_mask(g.name),
    And: lambda g, ext, c: ext[g.left] & ext[g.right],
    Or: lambda g, ext, c: ext[g.left] | ext[g.right],
    Imp: lambda g, ext, c: c.m.pre.box(~ext[g.left] | ext[g.right]),
    Box: lambda g, ext, c: c.pre_mod.box(ext[g.body]),
    BoxStar: lambda g, ext, c: c.box_star.box(ext[g.body]),
    Dia: lambda g, ext, c: c.m.pre.box(c.m.mod.dia(ext[g.body])),
    # The clause takes a single intuitionistic step, then R*.
    DiaStar: lambda g, ext, c: c.m.pre.box(c.mod_star.dia(ext[g.body])),
}


def extension(m: BiModel, f: Formula) -> int:
    """Bitmask of worlds satisfying f, computed per distinct subformula."""
    return images(f, _EXTENSION, _Frame(m))[f]


def _check_bimodel(m: BiModel, w: int) -> None:
    violations = validate(m, "ck")
    if violations:
        raise InvalidModelError(violations)
    if not 0 <= w < m.worlds:
        raise IndexError(f"world {w} out of range for {m.worlds} worlds")


def satisfies(m: BiModel, w: int, f: Formula) -> bool:
    _check_bimodel(m, w)
    return bool(extension(m, f) >> w & 1)


def program_relation(m: PdlModel, p: Program,
                     memo: "dict[Program, Relation] | None" = None) -> Relation:
    """rho extended homomorphically to compound programs."""
    if memo is None:
        memo = {}
    if p in memo:
        return memo[p]
    if isinstance(p, PAtom):
        try:
            r = m.rho[p.name]
        except KeyError:
            raise UnknownProgramAtomError(
                f"model does not interpret program atom {p.name!r}") from None
    elif isinstance(p, Comp):
        r = rel_compose(program_relation(m, p.left, memo),
                        program_relation(m, p.right, memo))
    elif isinstance(p, Star):
        r = rel_star(program_relation(m, p.body, memo))
    else:
        raise TypeError(f"unknown program node {type(p).__name__}")
    memo[p] = r
    return r


# The classical clauses: the atom and Boolean ones are the constructive
# ones, which read only the model (`.m`); the context also holds the full
# mask and the memo of `program_relation`.
_PDL_EXTENSION = {
    **{cls: _EXTENSION[cls] for cls in (Atom, And, Or)},
    Neg: lambda g, ext, c: c.full & ~ext[g.body],
    BoxP: lambda g, ext, c: program_relation(c.m, g.prog, c.memo).box(ext[g.body]),
}


def pdl_extension(m: PdlModel, f: PdlFormula) -> int:
    """Bitmask of worlds satisfying f, computed per distinct subformula."""
    return images(f, _PDL_EXTENSION,
                  SimpleNamespace(m=m, full=m.full_mask(), memo={}))[f]


def pdl_satisfies(m: PdlModel, w: int, f: PdlFormula) -> bool:
    if not 0 <= w < m.worlds:
        raise IndexError(f"world {w} out of range for {m.worlds} worlds")
    return bool(pdl_extension(m, f) >> w & 1)
