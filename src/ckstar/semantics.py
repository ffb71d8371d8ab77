"""Satisfaction over finite models.

Extensions are computed bottom-up per subformula as world bitmasks, which
makes truth persistence and validity checks set operations.  The master
box reads over the iterated relation (pre;mod)*; the tests check that the
coarser reading over (pre;mod*)* agrees with it on CK models.
"""

from __future__ import annotations

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
    PdlAnd,
    PdlAtom,
    PdlFormula,
    PdlOr,
    Program,
    Star,
    subformulas,
)


class InvalidModelError(ValueError):
    def __init__(self, violations: list[ModelViolation]):
        super().__init__(f"model violates {violations[0].condition} "
                         f"(and {len(violations) - 1} more)" if len(violations) > 1
                         else f"model violates {violations[0].condition}")
        self.violations = violations


class UnknownProgramAtomError(ValueError):
    pass


def extension(m: BiModel, f: Formula) -> int:
    """Bitmask of worlds satisfying f, computed per subformula."""
    cache: dict[str, Relation] = {}

    def relation(key: str) -> Relation:
        if key not in cache:
            if key == "pre_mod":
                cache[key] = rel_compose(m.pre, m.mod)
            elif key == "mod_star":
                cache[key] = rel_star(m.mod)
            elif key == "box_star":
                cache[key] = rel_star(relation("pre_mod"))
            else:
                raise KeyError(key)
        return cache[key]

    ext: dict[Formula, int] = {}
    for g in subformulas(f):
        if isinstance(g, Bot):
            e = m.bot
        elif isinstance(g, Atom):
            e = m.val_mask(g.name)
        elif isinstance(g, And):
            e = ext[g.left] & ext[g.right]
        elif isinstance(g, Or):
            e = ext[g.left] | ext[g.right]
        elif isinstance(g, Imp):
            e = m.pre.box(~ext[g.left] | ext[g.right])
        elif isinstance(g, Box):
            e = relation("pre_mod").box(ext[g.body])
        elif isinstance(g, BoxStar):
            e = relation("box_star").box(ext[g.body])
        elif isinstance(g, Dia):
            e = m.pre.box(m.mod.dia(ext[g.body]))
        elif isinstance(g, DiaStar):
            # The clause takes a single intuitionistic step, then R*.
            e = m.pre.box(relation("mod_star").dia(ext[g.body]))
        else:
            raise TypeError(f"not a constructive formula: {type(g).__name__}")
        ext[g] = e
    return ext[f]


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


def pdl_extension(m: PdlModel, f: PdlFormula) -> int:
    full = m.full_mask()
    memo: dict[Program, Relation] = {}
    ext: dict[PdlFormula, int] = {}
    for g in subformulas(f):
        if isinstance(g, PdlAtom):
            e = m.val_mask(g.name)
        elif isinstance(g, Neg):
            e = full & ~ext[g.body]
        elif isinstance(g, PdlAnd):
            e = ext[g.left] & ext[g.right]
        elif isinstance(g, PdlOr):
            e = ext[g.left] | ext[g.right]
        elif isinstance(g, BoxP):
            e = program_relation(m, g.prog, memo).box(ext[g.body])
        else:
            raise TypeError(f"not a PDL formula: {type(g).__name__}")
        ext[g] = e
    return ext[f]


def pdl_satisfies(m: PdlModel, w: int, f: PdlFormula) -> bool:
    if not 0 <= w < m.worlds:
        raise IndexError(f"world {w} out of range for {m.worlds} worlds")
    return bool(pdl_extension(m, f) >> w & 1)
