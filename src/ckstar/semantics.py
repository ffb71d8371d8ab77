"""Satisfaction over finite models.

Extensions are computed bottom-up, once per distinct subformula (by
`syntax.images`, from a table of clauses), as world bitmasks, which makes
truth persistence and validity checks set operations.  Both evaluators read
program relations from one memo, `_Frame.relation`: a PDL model's letters are
its program atoms, a bi-model's are `pre` and `mod`, and the constructive
modalities are programs over them, as `tau` writes them.  The master box
reads (pre;mod)*; the tests check that (pre;mod*)* agrees on CK models.
A block's relation (`blocks`) answers `box`, `dia`, `compose`, `star` too.
"""

from __future__ import annotations

from .relmodel import (
    BiModel,
    ModelViolation,
    PdlModel,
    Relation,
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
    """A model, its letters' relations, and a memo of program relations."""

    def __init__(self, m: "BiModel | PdlModel", letters: dict):
        self.m = m
        self.full = m.full_mask()
        self.letters = letters
        self.memo: dict = {}

    def relation(self, p: Program) -> Relation:
        """The letters' relations extended homomorphically to program p."""
        r = self.memo.get(p)
        if r is None:
            if isinstance(p, PAtom):
                r = self.letters.get(p.name)
                if r is None:
                    raise UnknownProgramAtomError(
                        f"model does not interpret program atom {p.name!r}")
            elif isinstance(p, Comp):
                r = self.relation(p.left).compose(self.relation(p.right))
            elif isinstance(p, Star):
                r = self.relation(p.body).star()
            else:
                raise TypeError(f"unknown program node {type(p).__name__}")
            self.memo[p] = r
        return r


# tau's programs i*;m, (i*;m)* and m*, where the preorder pre reads i*.
_MOD = PAtom("mod")
_PRE_MOD = Comp(PAtom("pre"), _MOD)
_BOX_STAR, _MOD_STAR = Star(_PRE_MOD), Star(_MOD)

# The constructive clauses, one rule per node class, over a `_Frame`.
_EXTENSION = {
    Bot: lambda g, ext, c: c.m.bot,
    Atom: lambda g, ext, c: c.m.val_mask(g.name),
    And: lambda g, ext, c: ext[g.left] & ext[g.right],
    Or: lambda g, ext, c: ext[g.left] | ext[g.right],
    Imp: lambda g, ext, c: c.m.pre.box(~ext[g.left] | ext[g.right]),
    Box: lambda g, ext, c: c.relation(_PRE_MOD).box(ext[g.body]),
    BoxStar: lambda g, ext, c: c.relation(_BOX_STAR).box(ext[g.body]),
    Dia: lambda g, ext, c: c.m.pre.box(c.m.mod.dia(ext[g.body])),
    # The clause takes a single intuitionistic step, then R*.
    DiaStar: lambda g, ext, c: c.m.pre.box(c.relation(_MOD_STAR).dia(ext[g.body])),
}


def extension(m: BiModel, f: Formula) -> int:
    """Bitmask of worlds satisfying f, computed per distinct subformula."""
    return images(f, _EXTENSION, _Frame(m, {"pre": m.pre, "mod": m.mod}))[f]


def satisfies(m: BiModel, w: int, f: Formula) -> bool:
    """Whether f holds at world w of m, once m meets the conditions of the
    class it declares (`m.kind`), else InvalidModelError.  Each class's
    conditions include `ck`'s, so a mislabelled model is refused."""
    violations = validate(m, m.kind)
    if violations:
        raise InvalidModelError(violations)
    if not 0 <= w < m.worlds:
        raise IndexError(f"world {w} out of range for {m.worlds} worlds")
    return bool(extension(m, f) >> w & 1)


# The classical clauses: the atom and Boolean ones are the constructive
# ones, which read only the model (`.m`).
_PDL_EXTENSION = {
    **{cls: _EXTENSION[cls] for cls in (Atom, And, Or)},
    Neg: lambda g, ext, c: c.full & ~ext[g.body],
    BoxP: lambda g, ext, c: c.relation(g.prog).box(ext[g.body]),
}


def pdl_extension(m: PdlModel, f: PdlFormula) -> int:
    """Bitmask of worlds satisfying f, computed per distinct subformula."""
    return images(f, _PDL_EXTENSION, _Frame(m, m.rho))[f]


def pdl_satisfies(m: PdlModel, w: int, f: PdlFormula) -> bool:
    if not 0 <= w < m.worlds:
        raise IndexError(f"world {w} out of range for {m.worlds} worlds")
    return bool(pdl_extension(m, f) >> w & 1)
