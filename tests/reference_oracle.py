"""The bounded oracle model by model: the reference `brute_force_decide`
is checked against.

`enumerate_models` and `enumerate_pdl_models` turn the raw enumeration
streams of `ckstar.blocks` into one model object each, in the same order, and
`reference_decide` calls `extension` (or `pdl_extension`) once per model
and stops at the first one that fails: the loop the block scan replaced.
"""

from __future__ import annotations

from typing import Iterator

from ckstar.blocks import _enumerate_pdl_raw, _enumerate_raw
from ckstar.oracle import MAX_ENUM_WORLDS, BoundedVerdict, EnumSpec
from ckstar.relmodel import BiModel, PdlModel, Relation
from ckstar.semantics import extension, pdl_extension
from ckstar.solver import check_input
from ckstar.syntax import program_atoms


def enumerate_models(spec: EnumSpec) -> Iterator[BiModel]:
    """Every validated model of the class with at most max_worlds worlds,
    valuations over spec.atoms, no isomorphism reduction."""
    for n in range(1, spec.max_worlds + 1):
        for (pre, mod), (bot, *vals) in _enumerate_raw(spec.kind, len(spec.atoms), n):
            yield BiModel(n, Relation(n, pre), Relation(n, mod),
                          dict(zip(spec.atoms, vals)), bot, spec.kind)


def enumerate_pdl_models(max_worlds: int, prog_atoms: tuple[str, ...],
                         atoms: tuple[str, ...]) -> Iterator[PdlModel]:
    """All classical models up to the bound; relations unconstrained."""
    if max_worlds > MAX_ENUM_WORLDS:
        raise ValueError("bound exceeds the enumeration guard")
    for n in range(1, max_worlds + 1):
        for rels, vals in _enumerate_pdl_raw(len(prog_atoms), len(atoms), n):
            yield PdlModel(n, {a: Relation(n, rows) for a, rows in zip(prog_atoms, rels)},
                           dict(zip(atoms, vals)))


def reference_decide(logic: str, f, spec: EnumSpec) -> tuple[BoundedVerdict, int]:
    """`brute_force_decide`, one model at a time, and the number of models
    it passed before the answer."""
    row, atoms = check_input(logic, f)
    if row.classical:
        prog_atoms = ("a",) if row.kind == "k" else tuple(program_atoms(f))
        models = enumerate_pdl_models(spec.max_worlds, prog_atoms, atoms)
        evaluate = pdl_extension
    else:
        models = enumerate_models(EnumSpec(spec.max_worlds, spec.atoms, row.kind))
        evaluate = extension
    passed = 0
    for m in models:
        missing = m.full_mask() & ~evaluate(m, f)
        if missing:
            return BoundedVerdict(False, spec.max_worlds, m,
                                  (missing & -missing).bit_length() - 1), passed
        passed += 1
    return BoundedVerdict(True, spec.max_worlds), passed
