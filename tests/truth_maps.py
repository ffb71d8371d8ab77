"""Model constructions that only the tests use.

Each is the companion of a truth-preservation fact the tests check (for
example, `ck_model_to_wk` carries a CK model to a WK model in which the
`omega` image of a formula holds exactly where the formula held).  The
package ships only the maps `decide` runs; these live here.
"""

from __future__ import annotations

from ckstar.relmodel import (
    BiModel,
    PdlModel,
    Relation,
    bits_of,
    mask_of,
    validate,
)
from ckstar.semantics import InvalidModelError, extension, pdl_extension
from ckstar.syntax import P_BOT, FragmentError, FragmentTag, PdlFormula, check_fragment
from ckstar.translate import TranslationError, iota


def _validated(m: BiModel, kind: str) -> None:
    violations = validate(m, kind)
    if violations:
        raise InvalidModelError(violations)


def identity(n: int) -> Relation:
    return Relation(n, tuple(1 << w for w in range(n)))


def restrict(r: Relation, keep) -> Relation:
    """Submatrix on `keep`, reindexed by position."""
    idx = {w: i for i, w in enumerate(keep)}
    rows = [0] * len(keep)
    for w in keep:
        row = r.rows[w]
        for v in keep:
            if row >> v & 1:
                rows[idx[w]] |= 1 << idx[v]
    return Relation(len(keep), tuple(rows))


def restrict_mask(mask: int, keep) -> int:
    """The worlds of mask that lie in `keep`, reindexed by position."""
    return mask_of(i for i, w in enumerate(keep) if mask >> w & 1)


def ck_model_to_wk(m: BiModel) -> BiModel:
    """Same frame; p_bot takes over the fallible set, which empties."""
    _validated(m, "ck")
    val = dict(m.val)
    val[P_BOT] = m.bot
    return BiModel(m.worlds, m.pre, m.mod, val, 0, "wk")


def wk_model_to_pdl(m: BiModel) -> PdlModel:
    """Interpret the preorder as program i and the modal relation as m."""
    _validated(m, "wk")
    return PdlModel(m.worlds, {"i": m.pre, "m": m.mod}, dict(m.val))


def k_model_to_ck(m: PdlModel) -> BiModel:
    """Classical model as a constructive one over the identity preorder."""
    if "a" not in m.rho:
        raise TranslationError("model does not interpret program atom 'a'")
    return BiModel(m.worlds, identity(m.worlds), m.rho["a"],
                   dict(m.val), 0, "ck")


def wk_generated_classical(
    m: BiModel, f: PdlFormula
) -> tuple[BiModel, PdlModel, int]:
    """Submodel generated by the worlds forcing excluded middle for f's
    subformulas, paired with its classical companion over the composed
    relation.  Returns (submodel, classical model, generating set), all in
    the submodel's indexing."""
    _validated(m, "wk")
    if not check_fragment(f, FragmentTag.LK_STAR):
        raise FragmentError("formula is not in the single-program fragment")
    u_mask = extension(m, iota(f).left)  # iota's antecedent
    generated = m.pre.union(m.mod).star().image(u_mask)
    keep = bits_of(generated)
    val = {name: restrict_mask(ws, keep) for name, ws in m.val.items()}
    sub = BiModel(len(keep), restrict(m.pre, keep), restrict(m.mod, keep),
                  val, 0, "wk")
    classical = PdlModel(len(keep),
                         {"a": restrict(m.pre.compose(m.mod), keep)},
                         val)
    return sub, classical, restrict_mask(u_mask, keep)


def restrict_to_infallible(m: BiModel) -> tuple[BiModel, dict[int, int]]:
    """Drop the worlds satisfying falsum; returns the model and old->new map."""
    keep = bits_of(m.full_mask() & ~m.bot)
    val = {name: restrict_mask(ws, keep) for name, ws in m.val.items()}
    restricted = BiModel(len(keep), restrict(m.pre, keep), restrict(m.mod, keep),
                         val, 0, "wk")
    return restricted, {w: i for i, w in enumerate(keep)}


def valid_in_model(m, f) -> bool:
    """True iff f holds at every world of m."""
    return falsifying_world(m, f) is None


def falsifying_world(m, f) -> "int | None":
    """Least world where f fails, or None if f is valid in m."""
    if isinstance(m, PdlModel):
        e = pdl_extension(m, f)
    else:
        _validated(m, "ck")
        e = extension(m, f)
    missing = m.full_mask() & ~e
    if missing == 0:
        return None
    return (missing & -missing).bit_length() - 1
