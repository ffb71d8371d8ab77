"""Finite models: bitset relations, model-condition validators, JSON I/O.

A set of worlds is one integer bitmask, bit w for world w: each valuation,
the fallible set, and each relation row (row w = successor set of w).  So
composition, reflexive-transitive closure and the modal operators are
cheap even on the exponentially-sized models the solver can produce.
Only the JSON documents list worlds, in ascending order.  A
`BlockRelation` holds the relation of many same-size models at once, one
model per bit lane, for the bounded oracle's bulk scans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

# The four model classes: whether each admits fallible worlds, and for the
# transitive ones (mod a preorder confluent with pre) the class whose models
# `translate.ck_model_to_cs4` doubles into them; None for `ck` and `wk`.
ModelClass = NamedTuple("ModelClass", [("fallible", bool), ("base", "str | None")])
MODEL_CLASSES = {"ck": ModelClass(True, None), "wk": ModelClass(False, None),
                 "cs4": ModelClass(True, "ck"), "ws4": ModelClass(False, "wk")}
MODEL_KINDS = tuple(MODEL_CLASSES)

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
        return [(w, v) for w, row in enumerate(self.rows) for v in bits_of(row)]

    def union(self, other: "Relation") -> "Relation":
        self._check_dim(other)
        return Relation(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def image(self, mask: int) -> int:
        """Successors of the worlds in mask; visits only its set bits."""
        out = 0
        for w in bits_of(mask):
            out |= self.rows[w]
        return out

    def box(self, mask: int) -> int:
        """Worlds all of whose successors lie in mask: no successor outside."""
        return ((1 << self.n) - 1) ^ self.dia(~mask)

    def dia(self, mask: int) -> int:
        """Worlds with a successor in mask."""
        out = 0
        for w, row in enumerate(self.rows):
            if row & mask:
                out |= 1 << w
        return out

    def is_reflexive(self) -> bool:
        return all(self.rows[w] >> w & 1 for w in range(self.n))

    def transitivity_witness(self) -> "tuple[int, int, int] | None":
        """(w, v, u) with w -> v -> u and not w -> u: the first w whose
        image of its row leaves the row, its first such v, v's last such u."""
        for w, row in enumerate(self.rows):
            if self.image(row) & ~row:
                v = next(v for v in bits_of(row) if self.rows[v] & ~row)
                return (w, v, (self.rows[v] & ~row).bit_length() - 1)
        return None

    def _check_dim(self, other: "Relation") -> None:
        if self.n != other.n:
            raise ValueError(f"world counts differ: {self.n} vs {other.n}")


@dataclass(frozen=True)
class BlockRelation:
    """The relation of a disjoint union of `lanes` models of n worlds each,
    bit-sliced (one model per bit lane): world w of lane k is world
    w*lanes + k of the union, and cells[w*n + v] has bit k iff w -> v in
    lane k.  Each operation costs O(n^2) (composition and star O(n^3))
    big-int operations for all lanes at once."""

    n: int
    lanes: int
    cells: tuple[int, ...]

    def box(self, mask: int) -> int:
        """Worlds all of whose successors lie in mask: no successor outside."""
        return ((1 << self.n * self.lanes) - 1) ^ self.dia(~mask)

    def dia(self, mask: int) -> int:
        n, cells = self.n, self.cells
        inside = lane_slices(mask, n, self.lanes)
        hits = []
        for w in range(n):
            hit = 0
            for v in range(n):
                hit |= cells[w * n + v] & inside[v]
            hits.append(hit)
        return block_mask(hits, self.lanes)

    def compose(self, other: "BlockRelation") -> "BlockRelation":
        if (self.n, self.lanes) != (other.n, other.lanes):
            raise ValueError("blocks differ in world or lane count")
        n, a, b = self.n, self.cells, other.cells
        cells = []
        for w in range(n):
            for u in range(n):
                acc = 0
                for v in range(n):
                    acc |= a[w * n + v] & b[v * n + u]
                cells.append(acc)
        return BlockRelation(n, self.lanes, tuple(cells))

    def star(self) -> "BlockRelation":
        """Warshall in every lane at once."""
        n = self.n
        cells = list(self.cells)
        for w in range(n):
            cells[w * n + w] |= (1 << self.lanes) - 1
        for k in range(n):
            for w in range(n):
                via = cells[w * n + k]
                if via:
                    for u in range(n):
                        cells[w * n + u] |= via & cells[k * n + u]
        return BlockRelation(n, self.lanes, tuple(cells))

    def lane(self, k: int) -> Relation:
        n, cells = self.n, self.cells
        return Relation(n, tuple(
            sum((cells[w * n + v] >> k & 1) << v for v in range(n))
            for w in range(n)))


def lane_slices(mask: int, n: int, lanes: int) -> list[int]:
    """A block world set as one lane mask per world: item w has bit k iff
    world w of lane k lies in mask."""
    full = (1 << lanes) - 1
    return [mask >> (w * lanes) & full for w in range(n)]


def lane_worlds(mask: int, n: int, lanes: int, k: int) -> int:
    """Lane k's worlds in a block world set."""
    return sum((mask >> (w * lanes + k) & 1) << w for w in range(n))


def block_mask(slices: Iterable[int], lanes: int) -> int:
    """The block world set with lane mask slices[w] at world w."""
    out = 0
    for w, lane_mask in enumerate(slices):
        out |= lane_mask << (w * lanes)
    return out


def rel_compose(r: "Relation | BlockRelation",
                s: "Relation | BlockRelation") -> "Relation | BlockRelation":
    """x (r;s) y iff some z has x r z and z s y."""
    if type(r) is BlockRelation:
        return r.compose(s)
    r._check_dim(s)
    return Relation(r.n, tuple(s.image(row) for row in r.rows))


def rel_star(r: "Relation | BlockRelation") -> "Relation | BlockRelation":
    """Least reflexive-transitive superset (Warshall on bitset rows)."""
    if type(r) is BlockRelation:
        return r.star()
    n = r.n
    rows = [row | (1 << w) for w, row in enumerate(r.rows)]
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        if rk == bit:   # k reaches only itself: nothing to add through k
            continue
        for w in range(n):
            if rows[w] & bit:
                rows[w] |= rk
    return Relation(n, tuple(rows))


def mask_of(worlds: Iterable[int]) -> int:
    out = 0
    for w in worlds:
        out |= 1 << w
    return out


def bits_of(mask: int) -> list[int]:
    """The set bits of mask, ascending: the worlds of a set of worlds, or
    the member codes of a tableau state.  Visits only the set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
    val: Mapping[str, int]
    bot: int = 0
    kind: str = "ck"

    def val_mask(self, name: str) -> int:
        return self.val.get(name, self.bot)

    def full_mask(self) -> int:
        return (1 << self.worlds) - 1


@dataclass(frozen=True)
class PdlModel:
    worlds: int
    rho: Mapping[str, Relation]
    val: Mapping[str, int]

    def val_mask(self, name: str) -> int:
        return self.val.get(name, 0)

    def full_mask(self) -> int:
        return (1 << self.worlds) - 1


@dataclass(frozen=True)
class ModelViolation:
    condition: str
    worlds: tuple[int, ...]
    atom: "str | None" = None


def _preorder_violations(r: Relation, condition: str) -> list[ModelViolation]:
    """Each irreflexive world, then the first transitivity witness."""
    out = [] if r.is_reflexive() else [
        ModelViolation(condition, (w,)) for w in range(r.n) if not r.has(w, w)]
    wit = r.transitivity_witness()
    if wit is not None:
        out.append(ModelViolation(condition, wit))
    return out


def confluence_gaps(pre: Relation, mod: Relation) -> list[int]:
    """Per world w, the v' in (mod;pre)(w) but not in (pre;mod)(w).

    Confluence asks that w R v <= v' have some w' with w <= w' R v', so
    (w, v, v') fails exactly when v' is in w's gap: both products are
    composed once for the whole model."""
    pre_mod = rel_compose(pre, mod).rows
    return [a & ~b for a, b in zip(rel_compose(mod, pre).rows, pre_mod)]


def validate(m: BiModel, kind: str) -> list[ModelViolation]:
    """All condition violations for the given model class, with witnesses."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    out: list[ModelViolation] = []
    bot = m.bot

    out.extend(_preorder_violations(m.pre, "pre-not-preorder"))

    for name, vmask in sorted(m.val.items()):
        for w in bits_of(bot & ~vmask):
            out.append(ModelViolation("atomic-ex-falso", (w,), name))
        for w in bits_of(vmask):
            for v in bits_of(m.pre.rows[w] & ~vmask):
                out.append(ModelViolation("atomic-persistence", (w, v), name))

    for w in bits_of(bot):
        for v in bits_of((m.pre.rows[w] | m.mod.rows[w]) & ~bot):
            out.append(ModelViolation("falsum-persistence", (w, v)))
        if m.mod.rows[w] == 0:
            out.append(ModelViolation("falsum-seriality", (w,)))

    if not MODEL_CLASSES[kind].fallible:
        out.extend(ModelViolation("infallibility", (w,)) for w in bits_of(bot))

    if MODEL_CLASSES[kind].base is not None:
        out.extend(_preorder_violations(m.mod, "mod-not-preorder"))
        for w, gap in enumerate(confluence_gaps(m.pre, m.mod)):
            if gap:
                for v in bits_of(m.mod.rows[w]):
                    for vp in bits_of(m.pre.rows[v] & gap):
                        out.append(ModelViolation("not-confluent", (w, v, vp)))
    return out


# ---------------------------------------------------------------------------
# Serialization


def _pairs_json(r: Relation) -> list[list[int]]:
    return [[w, v] for w, v in r.pairs()]


def model_to_obj(m) -> dict:
    if isinstance(m, PdlModel):
        return {
            "kind": "pdl",
            "worlds": m.worlds,
            "rho": {a: _pairs_json(r) for a, r in sorted(m.rho.items())},
            "val": {p: bits_of(ws) for p, ws in sorted(m.val.items())},
        }
    if isinstance(m, BiModel):
        return {
            "kind": m.kind,
            "worlds": m.worlds,
            "pre": _pairs_json(m.pre),
            "mod": _pairs_json(m.mod),
            "val": {p: bits_of(ws) for p, ws in sorted(m.val.items())},
            "bot": bits_of(m.bot),
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


def _load_worldset(raw, n: int, key: str) -> int:
    _require(isinstance(raw, list), f"{key!r} must be a list of worlds")
    out = 0
    for w in raw:
        _require(isinstance(w, int) and not isinstance(w, bool) and 0 <= w < n,
                 f"{key!r} world {w!r} out of range")
        out |= 1 << w
    return out


def _load_val(raw, n: int) -> dict[str, int]:
    _require(isinstance(raw, dict), "'val' must be an object")
    return {name: _load_worldset(ws, n, f"val[{name}]") for name, ws in raw.items()}


def load_model(text: str):
    """Parse a model document; returns a BiModel or a PdlModel."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"not valid JSON: {err}") from err
    except RecursionError:
        raise ModelFormatError("document nests too deeply") from None
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
