"""Finite models: bitset relations, model-condition validators, JSON I/O.

Relations are stored as one integer bitmask per world (row w = successor
set of w), so composition and reflexive-transitive closure are cheap even
on the exponentially-sized models the solver can produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

MODEL_KINDS = ("ck", "wk", "cs4", "ws4")

# Largest world count a model document may declare.  Loading allocates one
# row per world before any pair is read, so the count is checked first.
# The solver's countermodels on its test and benchmark inputs stay under 30.
MAX_WORLDS = 4096


class ModelFormatError(ValueError):
    """Malformed model document."""


@dataclass(frozen=True)
class Relation:
    n: int
    rows: tuple[int, ...]

    @staticmethod
    def empty(n: int) -> "Relation":
        return Relation(n, (0,) * n)

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(n, tuple(1 << w for w in range(n)))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for w, v in pairs:
            if not (0 <= w < n and 0 <= v < n):
                raise ValueError(f"pair ({w}, {v}) out of range for {n} worlds")
            rows[w] |= 1 << v
        return Relation(n, tuple(rows))

    def has(self, w: int, v: int) -> bool:
        return bool(self.rows[w] >> v & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(w, v) for w in range(self.n) for v in range(self.n)
                if self.rows[w] >> v & 1]

    def union(self, other: "Relation") -> "Relation":
        self._check_dim(other)
        return Relation(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def image(self, mask: int) -> int:
        out = 0
        for w in range(self.n):
            if mask >> w & 1:
                out |= self.rows[w]
        return out

    def forward_closure(self, mask: int) -> int:
        closed = mask
        while True:
            grown = closed | self.image(closed)
            if grown == closed:
                return closed
            closed = grown

    def restrict(self, keep: Sequence[int]) -> "Relation":
        """Submatrix on `keep`, reindexed by position."""
        idx = {w: i for i, w in enumerate(keep)}
        rows = [0] * len(keep)
        for w in keep:
            row = self.rows[w]
            for v in keep:
                if row >> v & 1:
                    rows[idx[w]] |= 1 << idx[v]
        return Relation(len(keep), tuple(rows))

    def is_reflexive(self) -> bool:
        return all(self.rows[w] >> w & 1 for w in range(self.n))

    def transitivity_witness(self) -> "tuple[int, int, int] | None":
        for w in range(self.n):
            row = self.rows[w]
            for v in range(self.n):
                if row >> v & 1 and self.rows[v] & ~row:
                    u = (self.rows[v] & ~row).bit_length() - 1
                    return (w, v, u)
        return None

    def _check_dim(self, other: "Relation") -> None:
        if self.n != other.n:
            raise ValueError(f"world counts differ: {self.n} vs {other.n}")


def rel_compose(r: Relation, s: Relation) -> Relation:
    """x (r;s) y iff some z has x r z and z s y."""
    r._check_dim(s)
    rows = []
    for w in range(r.n):
        out = 0
        row = r.rows[w]
        for z in range(r.n):
            if row >> z & 1:
                out |= s.rows[z]
        rows.append(out)
    return Relation(r.n, tuple(rows))


def rel_star(r: Relation) -> Relation:
    """Least reflexive-transitive superset (Warshall on bitset rows)."""
    n = r.n
    rows = [row | (1 << w) for w, row in enumerate(r.rows)]
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for w in range(n):
            if rows[w] & bit:
                rows[w] |= rk
    return Relation(n, tuple(rows))


def mask_of(worlds: Iterable[int]) -> int:
    out = 0
    for w in worlds:
        out |= 1 << w
    return out


def worlds_of(mask: int) -> list[int]:
    out = []
    w = 0
    while mask:
        if mask & 1:
            out.append(w)
        mask >>= 1
        w += 1
    return out


@dataclass(frozen=True)
class BiModel:
    """Birelational model; `kind` records which validator it is meant for.

    Atoms absent from `val` are interpreted as the fallible set `bot`,
    which keeps every finite valuation closed under the model conditions.
    """

    worlds: int
    pre: Relation
    mod: Relation
    val: Mapping[str, frozenset[int]]
    bot: frozenset[int] = frozenset()
    kind: str = "ck"

    def val_mask(self, name: str) -> int:
        if name in self.val:
            return mask_of(self.val[name])
        return mask_of(self.bot)

    def full_mask(self) -> int:
        return (1 << self.worlds) - 1


@dataclass(frozen=True)
class PdlModel:
    worlds: int
    rho: Mapping[str, Relation]
    val: Mapping[str, frozenset[int]]

    def val_mask(self, name: str) -> int:
        return mask_of(self.val.get(name, frozenset()))

    def full_mask(self) -> int:
        return (1 << self.worlds) - 1


def bi_model(worlds: int, pre, mod, val=None, bot=(), kind: str = "ck") -> BiModel:
    """Convenience constructor taking pair lists and plain sets."""
    pre_r = pre if isinstance(pre, Relation) else Relation.from_pairs(worlds, pre)
    mod_r = mod if isinstance(mod, Relation) else Relation.from_pairs(worlds, mod)
    vals = {name: frozenset(ws) for name, ws in (val or {}).items()}
    return BiModel(worlds, pre_r, mod_r, vals, frozenset(bot), kind)


def pdl_model(worlds: int, rho, val=None) -> PdlModel:
    rels = {a: (r if isinstance(r, Relation) else Relation.from_pairs(worlds, r))
            for a, r in rho.items()}
    vals = {name: frozenset(ws) for name, ws in (val or {}).items()}
    return PdlModel(worlds, rels, vals)


@dataclass(frozen=True)
class ModelViolation:
    condition: str
    worlds: tuple[int, ...]
    atom: "str | None" = None


def validate(m: BiModel, kind: str) -> list[ModelViolation]:
    """All condition violations for the given model class, with witnesses."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    out: list[ModelViolation] = []
    n = m.worlds
    bot = mask_of(m.bot)

    if not m.pre.is_reflexive():
        for w in range(n):
            if not m.pre.has(w, w):
                out.append(ModelViolation("pre-not-preorder", (w,)))
    wit = m.pre.transitivity_witness()
    if wit is not None:
        out.append(ModelViolation("pre-not-preorder", wit))

    for name in sorted(m.val):
        vmask = mask_of(m.val[name])
        for w in worlds_of(bot & ~vmask):
            out.append(ModelViolation("atomic-ex-falso", (w,), name))
        for w in worlds_of(vmask):
            for v in worlds_of(m.pre.rows[w] & ~vmask):
                out.append(ModelViolation("atomic-persistence", (w, v), name))

    for w in worlds_of(bot):
        for v in worlds_of((m.pre.rows[w] | m.mod.rows[w]) & ~bot):
            out.append(ModelViolation("falsum-persistence", (w, v)))
        if m.mod.rows[w] == 0:
            out.append(ModelViolation("falsum-seriality", (w,)))

    if kind in ("wk", "ws4"):
        for w in worlds_of(bot):
            out.append(ModelViolation("infallibility", (w,)))

    if kind in ("cs4", "ws4"):
        if not m.mod.is_reflexive():
            for w in range(n):
                if not m.mod.has(w, w):
                    out.append(ModelViolation("mod-not-preorder", (w,)))
        wit = m.mod.transitivity_witness()
        if wit is not None:
            out.append(ModelViolation("mod-not-preorder", wit))
        # Confluence: w R v <= v' requires some w' with w <= w' R v'.
        for w in range(n):
            for v in worlds_of(m.mod.rows[w]):
                for vp in worlds_of(m.pre.rows[v]):
                    ok = any(m.mod.rows[wp] >> vp & 1
                             for wp in worlds_of(m.pre.rows[w]))
                    if not ok:
                        out.append(ModelViolation("not-confluent", (w, v, vp)))
    return out


def restrict_to_infallible(m: BiModel) -> tuple[BiModel, dict[int, int]]:
    """Drop the worlds satisfying falsum; returns the model and old->new map."""
    keep = [w for w in range(m.worlds) if w not in m.bot]
    idx = {w: i for i, w in enumerate(keep)}
    val = {name: frozenset(idx[w] for w in ws if w in idx)
           for name, ws in m.val.items()}
    restricted = BiModel(len(keep), m.pre.restrict(keep), m.mod.restrict(keep),
                         val, frozenset(), "wk")
    return restricted, idx


# ---------------------------------------------------------------------------
# Serialization


def _pairs_json(r: Relation) -> list[list[int]]:
    return [[w, v] for w, v in sorted(r.pairs())]


def model_to_obj(m) -> dict:
    if isinstance(m, PdlModel):
        return {
            "kind": "pdl",
            "worlds": m.worlds,
            "rho": {a: _pairs_json(r) for a, r in sorted(m.rho.items())},
            "val": {p: sorted(ws) for p, ws in sorted(m.val.items())},
        }
    if isinstance(m, BiModel):
        return {
            "kind": m.kind,
            "worlds": m.worlds,
            "pre": _pairs_json(m.pre),
            "mod": _pairs_json(m.mod),
            "val": {p: sorted(ws) for p, ws in sorted(m.val.items())},
            "bot": sorted(m.bot),
        }
    raise TypeError(f"cannot serialize {type(m).__name__}")


def dump_model(m) -> str:
    return json.dumps(model_to_obj(m), sort_keys=True)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _load_worlds(obj: dict) -> int:
    _require("worlds" in obj, "missing key 'worlds'")
    n = obj["worlds"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 0,
             "'worlds' must be a non-negative integer")
    _require(n <= MAX_WORLDS, f"'worlds' must be at most {MAX_WORLDS}")
    return n


def _load_pairs(raw, n: int, key: str) -> Relation:
    _require(isinstance(raw, list), f"{key!r} must be a list of pairs")
    pairs = []
    for item in raw:
        _require(isinstance(item, list) and len(item) == 2
                 and all(isinstance(x, int) and not isinstance(x, bool) for x in item),
                 f"{key!r} entries must be [w, v] integer pairs")
        w, v = item
        _require(0 <= w < n and 0 <= v < n, f"{key!r} pair [{w}, {v}] out of range")
        pairs.append((w, v))
    return Relation.from_pairs(n, pairs)


def _load_worldset(raw, n: int, key: str) -> frozenset[int]:
    _require(isinstance(raw, list), f"{key!r} must be a list of worlds")
    out = set()
    for w in raw:
        _require(isinstance(w, int) and not isinstance(w, bool) and 0 <= w < n,
                 f"{key!r} world {w!r} out of range")
        out.add(w)
    return frozenset(out)


def _load_val(raw, n: int) -> dict[str, frozenset[int]]:
    _require(isinstance(raw, dict), "'val' must be an object")
    return {name: _load_worldset(ws, n, f"val[{name}]") for name, ws in raw.items()}


def load_model(text: str):
    """Parse a model document; returns a BiModel or a PdlModel."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"not valid JSON: {err}") from err
    _require(isinstance(obj, dict), "document must be a JSON object")
    _require("kind" in obj, "missing key 'kind'")
    kind = obj["kind"]
    if kind == "pdl":
        allowed = {"kind", "worlds", "rho", "val"}
        _require(set(obj) == allowed, f"pdl document keys must be {sorted(allowed)}")
        n = _load_worlds(obj)
        _require(isinstance(obj["rho"], dict), "'rho' must be an object")
        rho = {a: _load_pairs(r, n, f"rho[{a}]") for a, r in obj["rho"].items()}
        return PdlModel(n, rho, _load_val(obj["val"], n))
    _require(kind in MODEL_KINDS, f"unknown kind {kind!r}")
    allowed = {"kind", "worlds", "pre", "mod", "val", "bot"}
    _require(set(obj) == allowed, f"document keys must be {sorted(allowed)}")
    n = _load_worlds(obj)
    return BiModel(
        n,
        _load_pairs(obj["pre"], n, "pre"),
        _load_pairs(obj["mod"], n, "mod"),
        _load_val(obj["val"], n),
        _load_worldset(obj["bot"], n, "bot"),
        kind,
    )
