"""The model enumeration packed into numpy arrays for bulk scans.

`ModelBank` lets the acceptance suite scan thousands of formulas against
every model of a class with at most 3 worlds in bounded time.  Its rows
come from `ckstar.oracle._enumerate_raw`, so their order is that of
`enumerate_models`, and tests pin its verdicts to `brute_force_decide`.
numpy is a test dependency only; the package itself needs none.
"""

from __future__ import annotations

from array import array

import numpy as np

from ckstar.oracle import EnumSpec, _enumerate_raw
from ckstar.relmodel import BiModel, Relation
from ckstar.syntax import (
    Atom,
    And,
    Bot,
    Box,
    BoxStar,
    Dia,
    DiaStar,
    Formula,
    Imp,
    Or,
    subformulas,
)


class ModelBank:
    """The enumeration stream packed into numpy row arrays for bulk scans.

    Row order matches `enumerate_models(spec)` exactly; bits above a
    model's world count are zero and masked by `full`.
    """

    def __init__(self, spec: EnumSpec):
        # Rows are uint8; EnumSpec caps max_worlds at MAX_ENUM_WORLDS (4).
        self.spec = spec
        w_max = spec.max_worlds
        ns = array("B")
        bots = array("B")
        pre_cols = [array("B") for _ in range(w_max)]
        mod_cols = [array("B") for _ in range(w_max)]
        val_cols = {a: array("B") for a in spec.atoms}
        for n, pre, mod, bot, vals in _enumerate_raw(spec):
            ns.append(n)
            bots.append(bot)
            for w in range(w_max):
                pre_cols[w].append(pre[w] if w < n else 0)
                mod_cols[w].append(mod[w] if w < n else 0)
            for i, a in enumerate(spec.atoms):
                val_cols[a].append(vals[i])
        self.count = len(ns)
        self.n = np.frombuffer(ns, dtype=np.uint8)
        self.full = ((1 << self.n.astype(np.uint16)) - 1).astype(np.uint8)
        self.bot = np.frombuffer(bots, dtype=np.uint8)
        self.pre = np.stack([np.frombuffer(c, dtype=np.uint8) for c in pre_cols],
                            axis=1) if self.count else np.zeros((0, w_max), np.uint8)
        self.mod = np.stack([np.frombuffer(c, dtype=np.uint8) for c in mod_cols],
                            axis=1) if self.count else np.zeros((0, w_max), np.uint8)
        self.val = {a: np.frombuffer(c, dtype=np.uint8) for a, c in val_cols.items()}
        self.pre_mod = self._compose(self.pre, self.mod)
        self.box_star = self._star(self.pre_mod)
        self.mod_star = self._star(self.mod)

    def _compose(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        w_max = left.shape[1]
        out = np.zeros_like(left)
        for w in range(w_max):
            acc = np.zeros(self.count, np.uint8)
            row = left[:, w]
            for v in range(w_max):
                acc |= np.where((row >> v) & 1 == 1, right[:, v], 0)
            out[:, w] = acc
        return out

    def _star(self, rel: np.ndarray) -> np.ndarray:
        w_max = rel.shape[1]
        out = rel.copy()
        for w in range(w_max):
            out[:, w] |= np.uint8(1 << w)
        for k in range(w_max):
            col_k = out[:, k].copy()
            for w in range(w_max):
                grow = np.where((out[:, w] >> k) & 1 == 1, col_k, 0)
                out[:, w] |= grow
        # Rows past a model's world count must stay empty.
        for w in range(w_max):
            out[:, w] = np.where(w < self.n, out[:, w] & self.full, 0)
        return out

    def _forall(self, rows: np.ndarray, target: np.ndarray,
                lo: int, hi: int) -> np.ndarray:
        miss = self.full[lo:hi] & ~target
        out = np.zeros(hi - lo, np.uint8)
        for w in range(rows.shape[1]):
            ok = (rows[lo:hi, w] & miss) == 0
            out |= ok.astype(np.uint8) << w
        return out & self.full[lo:hi]

    def _exists(self, rows: np.ndarray, target: np.ndarray,
                lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, np.uint8)
        for w in range(rows.shape[1]):
            hit = (rows[lo:hi, w] & target) != 0
            out |= hit.astype(np.uint8) << w
        return out & self.full[lo:hi]

    def extension(self, f: Formula, lo: int = 0, hi: "int | None" = None) -> np.ndarray:
        if hi is None:
            hi = self.count
        full = self.full[lo:hi]
        ext: dict[Formula, np.ndarray] = {}
        for g in subformulas(f):
            if isinstance(g, Bot):
                e = self.bot[lo:hi].copy()
            elif isinstance(g, Atom):
                e = self.val[g.name][lo:hi] if g.name in self.val else self.bot[lo:hi]
                e = e.copy()
            elif isinstance(g, And):
                e = ext[g.left] & ext[g.right]
            elif isinstance(g, Or):
                e = ext[g.left] | ext[g.right]
            elif isinstance(g, Imp):
                bad = ext[g.left] & ~ext[g.right] & full
                e = self._forall(self.pre, full & ~bad, lo, hi)
            elif isinstance(g, Box):
                e = self._forall(self.pre_mod, ext[g.body], lo, hi)
            elif isinstance(g, BoxStar):
                e = self._forall(self.box_star, ext[g.body], lo, hi)
            elif isinstance(g, Dia):
                good = self._exists(self.mod, ext[g.body], lo, hi)
                e = self._forall(self.pre, good, lo, hi)
            elif isinstance(g, DiaStar):
                good = self._exists(self.mod_star, ext[g.body], lo, hi)
                e = self._forall(self.pre, good, lo, hi)
            else:
                raise TypeError(f"not a constructive formula: {type(g).__name__}")
            ext[g] = e
        return ext[f]

    def first_violation(self, f: Formula,
                        chunk: int = 1 << 14) -> "tuple[int, int] | None":
        """(model index, least falsifying world) of the first falsifier in
        enumeration order, scanning in chunks for early exit."""
        for lo in range(0, self.count, chunk):
            hi = min(lo + chunk, self.count)
            ext = self.extension(f, lo, hi)
            miss = self.full[lo:hi] & ~ext
            idx = np.flatnonzero(miss)
            if idx.size:
                i = int(idx[0])
                m = int(miss[i])
                return lo + i, (m & -m).bit_length() - 1
        return None

    def model_at(self, i: int) -> BiModel:
        n = int(self.n[i])
        pre = Relation(n, tuple(int(self.pre[i, w]) for w in range(n)))
        mod = Relation(n, tuple(int(self.mod[i, w]) for w in range(n)))
        val = {a: int(col[i]) for a, col in self.val.items()}
        return BiModel(n, pre, mod, val, int(self.bot[i]), self.spec.kind)
