"""Formula translations between the logics and the matching model moves.

Four formula maps: `omega` eliminates falsum into the infallible language,
`tau` is the Gödel-Tarski map into test-free PDL, `iota` embeds the
classical single-program fragment into the diamond-free constructive
language, and `kappa` reads transitive-logic modalities as master
modalities.  The model constructions here are the ones `decide` uses to
map a countermodel back; each is the companion of a truth-preservation
fact the tests check.

Each formula map is a table of rules, one per node class, read by
`syntax.images`: each distinct subformula is mapped once, from its
children's images, and `omega`, `kappa` and iota's reading rebuild each
node they keep (`_rebuilt`).  The long conjunctions, omega's falsum image
and iota's antecedent, are built balanced; the falsum image is built once
per atom set.
"""

from __future__ import annotations

from functools import lru_cache

from .relmodel import (
    MODEL_CLASSES,
    BiModel,
    PdlModel,
    Relation,
    bits_of,
    mask_of,
    rel_compose,
    rel_star,
    validate,  # not called here: bench/tracing.py wraps it under this name
)
from .semantics import extension
from .syntax import (
    Atom,
    And,
    Bot,
    Box,
    BoxP,
    BoxStar,
    CHILDREN,
    Comp,
    Dia,
    DiaStar,
    Formula,
    FragmentError,
    FragmentTag,
    Imp,
    Neg,
    Or,
    PAtom,
    PdlFormula,
    P_BOT,
    Star,
    check_fragment,
    depth_error,
    images,
    variables,
)


class TranslationError(ValueError):
    pass


_I = PAtom("i")
_M = PAtom("m")
_I_STAR = Star(_I)


def _rebuilt(g: Formula, image: dict, context) -> Formula:
    """The rule keeping g's node over its children's images, or g's leaf."""
    kids = CHILDREN[type(g)].formulas(g)
    return type(g)(*map(image.__getitem__, kids)) if kids else g


def _conjunction(parts: list) -> Formula:
    """Balanced conjunction of a nonempty list, so its depth grows with the
    log of its length; for up to four parts it is the right-nested one."""
    if len(parts) == 1:
        return parts[0]
    k = max(1, (len(parts) - 1) // 2)
    return And(_conjunction(parts[:k]), _conjunction(parts[k:]))


@lru_cache(maxsize=256)
def _falsum_image(atoms: tuple) -> Formula:
    """omega's image of falsum over the given sorted atoms: the master-boxed
    conjunction of the atoms and p_bot, plus a seriality witness.  Built
    once per atom tuple."""
    parts = [Atom(name) for name in atoms if name != P_BOT]
    return BoxStar(And(_conjunction(parts + [Atom(P_BOT)]), Dia(Atom(P_BOT))))


# omega's rules: the context is the falsum image.
_OMEGA = dict.fromkeys((Atom, And, Or, Imp, Box, Dia, BoxStar, DiaStar), _rebuilt)
_OMEGA[Bot] = lambda g, image, falsum: falsum


def omega(f: Formula) -> Formula:
    """Replace every falsum leaf by the master-boxed full conjunction plus a
    seriality witness; identity elsewhere."""
    atoms = variables(f)
    if P_BOT in atoms:
        raise TranslationError(f"{P_BOT!r} must not occur in the input formula")
    return images(f, _OMEGA, _falsum_image(tuple(atoms)))[f]


_TAU_BOX = Comp(_I_STAR, _M)
# tau's rules, one per constructive node class.
_TAU = {
    Bot: lambda g, image, _: And(Atom(P_BOT), Neg(Atom(P_BOT))),
    Atom: lambda g, image, _: BoxP(_I_STAR, g),
    And: lambda g, image, _: And(image[g.left], image[g.right]),
    Or: lambda g, image, _: Or(image[g.left], image[g.right]),
    Imp: lambda g, image, _: BoxP(_I_STAR, Or(Neg(image[g.left]), image[g.right])),
    Box: lambda g, image, _: BoxP(_TAU_BOX, image[g.body]),
    BoxStar: lambda g, image, _: BoxP(Star(_TAU_BOX), image[g.body]),
    Dia: lambda g, image, _: BoxP(_I_STAR, Neg(BoxP(_M, Neg(image[g.body])))),
    DiaStar: lambda g, image, _: BoxP(_I_STAR, Neg(BoxP(Star(_M), Neg(image[g.body])))),
}


def tau(f: Formula) -> PdlFormula:
    """Gödel-Tarski translation into test-free PDL over programs i and m."""
    return images(f, _TAU)[f]


# The single-program fragment's reading in the diamond-free constructive
# language: atoms and the Boolean connectives are kept, [a] becomes box,
# [a*] the master box, and negation becomes implication into falsum.
_KSTAR = dict.fromkeys((Atom, And, Or), _rebuilt)
_KSTAR[Neg] = lambda g, image, _: Imp(image[g.body], Bot())
_KSTAR[BoxP] = lambda g, image, _: (BoxStar if type(g.prog) is Star else Box)(image[g.body])


def iota(f: PdlFormula) -> Formula:
    """Embed the classical single-program fragment into the diamond-free
    constructive language: f read by `_KSTAR`, under the antecedent of
    excluded middle, master-boxed, for the reading of every subformula of
    f, in `subformulas` order."""
    if (error := depth_error(f)) is not None:
        raise FragmentError(error)
    if not check_fragment(f, FragmentTag.LK_STAR):
        raise FragmentError("formula is not in the single-program fragment")
    image = images(f, _KSTAR)
    conjuncts = [Or(h, Imp(h, Bot())) for h in image.values()]
    return Imp(BoxStar(_conjunction(conjuncts)), image[f])


# kappa's rules: the base modalities are read as master modalities.
_KAPPA = dict.fromkeys((Bot, Atom, And, Or, Imp), _rebuilt)
_KAPPA[Box] = lambda g, image, _: BoxStar(image[g.body])
_KAPPA[Dia] = lambda g, image, _: DiaStar(image[g.body])


def kappa(f: Formula) -> Formula:
    """Replace each box by the master box and each diamond by the master
    diamond."""
    if (error := depth_error(f)) is not None:
        raise FragmentError(error)
    if not check_fragment(f, FragmentTag.L):
        raise FragmentError("formula is not in the iteration-free fragment")
    return images(f, _KAPPA)[f]


# ---------------------------------------------------------------------------
# Model constructions


def wk_model_to_ck(m: BiModel, f: Formula) -> BiModel:
    """Fallible companion: worlds where omega's falsum image over f's atoms
    holds become the new fallible set; only f's own atoms keep their
    valuation, everything else defaults to that set.  m must be a certified
    `wk` model, as `decide` certifies it at the layer below; it is not
    checked again here."""
    atoms = variables(f)
    bot_mask = extension(m, _falsum_image(tuple(atoms)))
    val = {name: m.val.get(name, 0) for name in atoms}
    return BiModel(m.worlds, m.pre, m.mod, val, bot_mask, "ck")


def pdl_model_to_wk(m: PdlModel) -> BiModel:
    """Preorder is the starred i-relation; an atom holds where it holds
    along every i*-path."""
    for name in ("i", "m"):
        if name not in m.rho:
            raise TranslationError(f"model does not interpret program atom {name!r}")
    pre = rel_star(m.rho["i"])
    val = {name: pre.box(ws) for name, ws in m.val.items()}
    return BiModel(m.worlds, pre, m.rho["m"], val, kind="wk")


def ck_model_to_cs4(m: BiModel) -> BiModel:
    """Duplicate every world; index-1 copies get the iterated accessibility,
    making the frame confluent.  World 2w + i is copy i of world w.  An
    infallible input (`wk` or `ws4`) yields a `ws4` model, a fallible one
    (`ck` or `cs4`) a `cs4` one.  m must be a
    certified model of its class, as `decide` certifies it at the layer
    below; it is not checked again here."""
    n = m.worlds
    n2 = 2 * n
    mod_star = rel_star(m.mod)
    iter_star = rel_star(rel_compose(m.pre, mod_star))

    def spread(mask: int) -> int:
        out = 0
        for v in bits_of(mask):
            out |= 0b11 << (2 * v)
        return out

    pre_rows = [both for both in map(spread, m.pre.rows) for _ in range(2)]
    mod_rows = []
    for w in range(n):
        mod_rows.append(mask_of(2 * v for v in bits_of(mod_star.rows[w])))
        mod_rows.append(spread(iter_star.rows[w]))
    val = {name: spread(ws) for name, ws in m.val.items()}
    kind = "cs4" if MODEL_CLASSES[m.kind].fallible else "ws4"
    return BiModel(n2, Relation(n2, tuple(pre_rows)), Relation(n2, tuple(mod_rows)),
                   val, spread(m.bot), kind)
