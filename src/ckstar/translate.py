"""Formula translations between the logics and the matching model moves.

Four formula maps: `omega` eliminates falsum into the infallible language,
`tau` is the Gödel-Tarski map into test-free PDL, `iota` embeds the
classical single-program fragment into the diamond-free constructive
language, and `kappa` reads transitive-logic modalities as master
modalities.  The model constructions here are the ones `decide` uses to
map a countermodel back; each is the companion of a truth-preservation
fact the tests check.

`omega` and `kappa` stay in the constructive language and rebuild each
node with `syntax.rebuild`; `tau` and `kstar_to_lstar` change language,
so they spell out every node class.  The long conjunctions, omega's
falsum image and iota's antecedent, are built balanced.
"""

from __future__ import annotations

from .relmodel import (
    BiModel,
    PdlModel,
    Relation,
    bits_of,
    mask_of,
    rel_compose,
    rel_star,
    validate,
)
from .semantics import InvalidModelError, extension
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
    FragmentError,
    FragmentTag,
    Imp,
    Neg,
    Or,
    PAtom,
    PdlAnd,
    PdlAtom,
    PdlFormula,
    PdlOr,
    P_BOT,
    Star,
    check_fragment,
    rebuild,
    subformulas,
    variables,
)


class TranslationError(ValueError):
    pass


_I = PAtom("i")
_M = PAtom("m")
_I_STAR = Star(_I)
# kappa's reading of the base modalities.
_MASTER = {Box: BoxStar, Dia: DiaStar}
# iota's reading of the single-program fragment's box programs.
_KSTAR_BOXES = {PAtom("a"): Box, Star(PAtom("a")): BoxStar}


def _conjunction(parts: list) -> Formula:
    """Balanced conjunction of a nonempty list, so its depth grows with the
    log of its length; for up to four parts it is the right-nested one."""
    if len(parts) == 1:
        return parts[0]
    k = max(1, (len(parts) - 1) // 2)
    return And(_conjunction(parts[:k]), _conjunction(parts[k:]))


def _falsum_image(atoms) -> Formula:
    """omega's image of falsum over the given atoms: the master-boxed
    conjunction of the sorted atoms and p_bot, plus a seriality witness."""
    parts = [Atom(name) for name in sorted(a for a in atoms if a != P_BOT)]
    return BoxStar(And(_conjunction(parts + [Atom(P_BOT)]), Dia(Atom(P_BOT))))


def omega(f: Formula) -> Formula:
    """Replace every falsum leaf by the master-boxed full conjunction plus a
    seriality witness; identity elsewhere."""
    atoms = variables(f)
    if P_BOT in atoms:
        raise TranslationError(f"{P_BOT!r} must not occur in the input formula")
    replacement = _falsum_image(atoms)

    def walk(g: Formula) -> Formula:
        return replacement if isinstance(g, Bot) else rebuild(g, walk)

    return walk(f)


def tau(f: Formula) -> PdlFormula:
    """Gödel-Tarski translation into test-free PDL over programs i and m."""
    if isinstance(f, Bot):
        return PdlAnd(PdlAtom(P_BOT), Neg(PdlAtom(P_BOT)))
    if isinstance(f, Atom):
        return BoxP(_I_STAR, PdlAtom(f.name))
    if isinstance(f, And):
        return PdlAnd(tau(f.left), tau(f.right))
    if isinstance(f, Or):
        return PdlOr(tau(f.left), tau(f.right))
    if isinstance(f, Imp):
        return BoxP(_I_STAR, PdlOr(Neg(tau(f.left)), tau(f.right)))
    if isinstance(f, Box):
        return BoxP(Comp(_I_STAR, _M), tau(f.body))
    if isinstance(f, BoxStar):
        return BoxP(Star(Comp(_I_STAR, _M)), tau(f.body))
    if isinstance(f, Dia):
        return BoxP(_I_STAR, Neg(BoxP(_M, Neg(tau(f.body)))))
    if isinstance(f, DiaStar):
        return BoxP(_I_STAR, Neg(BoxP(Star(_M), Neg(tau(f.body)))))
    raise TypeError(f"unknown formula node {type(f).__name__}")


def kstar_to_lstar(f: PdlFormula) -> Formula:
    """Read a single-program classical formula in the diamond-free
    constructive language: [a] becomes box, [a*] the master box, and
    negation becomes implication into falsum."""
    if isinstance(f, PdlAtom):
        return Atom(f.name)
    if isinstance(f, Neg):
        return Imp(kstar_to_lstar(f.body), Bot())
    if isinstance(f, PdlAnd):
        return And(kstar_to_lstar(f.left), kstar_to_lstar(f.right))
    if isinstance(f, PdlOr):
        return Or(kstar_to_lstar(f.left), kstar_to_lstar(f.right))
    if isinstance(f, BoxP):
        box = _KSTAR_BOXES.get(f.prog)
        if box is None:
            raise FragmentError("program outside the single-program fragment")
        return box(kstar_to_lstar(f.body))
    raise TypeError(f"unknown PDL node {type(f).__name__}")


def iota_antecedent(f: PdlFormula) -> Formula:
    """Excluded middle, master-boxed, for every subformula of f (read
    constructively), in deterministic subformula order."""
    conjuncts = []
    for sub in subformulas(f):
        mapped = kstar_to_lstar(sub)
        conjuncts.append(Or(mapped, Imp(mapped, Bot())))
    return BoxStar(_conjunction(conjuncts))


def iota(f: PdlFormula) -> Formula:
    """Embed the classical single-program fragment into the diamond-free
    constructive language."""
    if not check_fragment(f, FragmentTag.LK_STAR):
        raise FragmentError("formula is not in the single-program fragment")
    return Imp(iota_antecedent(f), kstar_to_lstar(f))


def kappa(f: Formula) -> Formula:
    """Replace each box by the master box and each diamond by the master
    diamond."""
    if not check_fragment(f, FragmentTag.L):
        raise FragmentError("formula is not in the iteration-free fragment")

    def walk(g: Formula) -> Formula:
        master = _MASTER.get(type(g))
        return rebuild(g, walk) if master is None else master(walk(g.body))

    return walk(f)


# ---------------------------------------------------------------------------
# Model constructions


def _validated(m: BiModel, kind: str) -> None:
    violations = validate(m, kind)
    if violations:
        raise InvalidModelError(violations)


def wk_model_to_ck(m: BiModel, f: Formula) -> BiModel:
    """Fallible companion: worlds where omega's falsum image over f's atoms
    holds become the new fallible set; only f's own atoms keep their
    valuation, everything else defaults to that set."""
    _validated(m, "wk")
    atoms = variables(f)
    bot_mask = extension(m, _falsum_image(atoms))
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
    making the frame confluent.  World 2w + i is copy i of world w.  A
    `wk` input yields a `ws4` model, any other a `cs4` one."""
    _validated(m, "ck")
    n = m.worlds
    n2 = 2 * n
    mod_star = rel_star(m.mod)
    iter_star = rel_star(rel_compose(m.pre, mod_star))

    def spread(mask: int) -> int:
        out = 0
        for v in bits_of(mask):
            out |= 0b11 << (2 * v)
        return out

    pre_rows = []
    mod_rows = []
    for w in range(n):
        both = spread(m.pre.rows[w])
        pre_rows.append(both)
        pre_rows.append(both)
        mod_rows.append(mask_of(2 * v for v in bits_of(mod_star.rows[w])))
        mod_rows.append(spread(iter_star.rows[w]))
    val = {name: spread(ws) for name, ws in m.val.items()}
    kind = "ws4" if m.kind == "wk" else "cs4"
    return BiModel(n2, Relation(n2, tuple(pre_rows)), Relation(n2, tuple(mod_rows)),
                   val, spread(m.bot), kind)
