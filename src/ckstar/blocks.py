"""Every small model of a class, as bit-sliced blocks, and the one scan that
evaluates a formula over them.

`_enumerate_raw` streams every validated n-world model of a class in a
fixed deterministic order, as relation rows and world sets; it filters
with the `relmodel` expressions that `validate` checks and states no model
condition itself.  `_enumerate_pdl_raw` is its classical counterpart.
Both read only counts: the names are attached by position when a model is
made.  `scan` packs these streams into blocks: disjoint unions of up to
BLOCK_MODELS same-size models, one model per bit lane, in the bit-sliced
format this module alone states (`BlockRelation`, whose methods are
`Relation`'s, and the lane helpers).  Truth is invariant under disjoint
unions, so one evaluator call answers every model of a block.  Blocks are
built at the first scan that reaches them and kept per (model class,
counts, world count), up to CACHE_BITS bits of lane masks in all.  `scan`
walks the world counts itself, names the program atoms a classical class
interprets, and states the bound on a class's size that lets a caller stop
where a class passes one block.  The oracle scans up to its world bound;
`decide` scans one and two worlds, each while its class fits one block,
before its reduction chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator

from .relmodel import (
    MODEL_CLASSES,
    BiModel,
    PdlModel,
    Relation,
    bits_of,
    confluence_gaps,
)
from .syntax import program_atoms


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
        if n == 1:  # a block world set of one-world lanes is a lane mask
            return cells[0] & mask
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
        """Warshall in every lane at once.  A pivot whose row holds only
        itself in every lane adds nothing, and is skipped."""
        n = self.n
        cells = list(self.cells)
        for w in range(n):
            cells[w * n + w] |= (1 << self.lanes) - 1
        for k in range(n):
            if cells[k * n:k * n + n].count(0) == n - 1:
                continue
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


def _relations(n: int) -> Iterator[Relation]:
    """Every relation on n worlds, ascending in the n*n-bit pattern whose
    bits n*w to n*w + n - 1 are row w."""
    full = (1 << n) - 1
    for bits in range(1 << (n * n)):
        yield Relation(n, tuple(bits >> (n * w) & full for w in range(n)))


@cache
def _preorders(n: int) -> list[Relation]:
    """The preorders among `_relations(n)`, in its order: 1, 4 and 29 for
    one, two and three worlds."""
    return [r for r in _relations(n)
            if r.is_reflexive() and r.transitivity_witness() is None]


def _enumerate_raw(kind: str, atoms: int, n: int) -> Iterator[tuple]:
    """Every validated n-world model of the class with valuations over
    `atoms` atoms, no isomorphism reduction, in deterministic order: pairs
    of relation rows (pre, mod) and world sets (bot, *vals).

    Each filter is a condition `relmodel.validate` checks: atomic
    persistence (an upset of pre), falsum persistence and seriality (a
    fallible set closed under both relations, each of its worlds with a
    mod-successor), infallibility, mod a preorder, and confluence."""
    fallible, base = MODEL_CLASSES[kind]
    preorder_mod = base is not None
    full = (1 << n) - 1
    preorders = _preorders(n)
    for pre in preorders:
        upsets = [u for u in range(full + 1) if pre.image(u) & ~u == 0]
        for mod in preorders if preorder_mod else _relations(n):
            if preorder_mod and any(confluence_gaps(pre, mod)):
                continue
            rels = pre.rows, mod.rows
            serial = mod.dia(full)
            bots = [0] if not fallible else [
                b for b in range(full + 1) if b & ~serial == 0
                and (pre.image(b) | mod.image(b)) & ~b == 0]
            for bot in bots:
                choices = [u for u in upsets if u & bot == bot]
                yield from zip(itertools.repeat(rels), itertools.product(
                    (bot,), *[choices] * atoms))


def _enumerate_pdl_raw(letters: int, atoms: int, n: int) -> Iterator[tuple]:
    """Every classical n-world model, relations unconstrained, as pairs of
    relation rows (one per program atom) and valuations (one per atom)."""
    rows = [r.rows for r in _relations(n)]
    for rels in itertools.product(rows, repeat=letters):
        yield from zip(itertools.repeat(rels), itertools.product(
            range(1 << n), repeat=atoms))


# Models per block, one per bit lane.
BLOCK_MODELS = 1 << 16
# Lane-mask bits the block cache holds over all classes.  Past it a block
# is built, scanned and dropped.  The 3-world `ck` class over two atoms
# takes about 10 million.
CACHE_BITS = 1 << 25


def _pack(stream: Iterator[tuple], n: int) -> Iterator[tuple]:
    """An n-world raw stream cut into runs of at most BLOCK_MODELS models
    and bit-sliced: per run its lane count, its relations as
    `BlockRelation`s and its world sets as block world sets."""
    cells = n * n
    worlds_of = [bits_of(ws) for ws in range(1 << n)]
    for first in stream:
        r, s = len(first[0]), len(first[1])
        # One bit a lane: relation i's cell (w, v) at i*cells + w*n + v,
        # then world set j's world w at r*cells + j*n + w.
        bufs = [bytearray(BLOCK_MODELS // 8) for _ in range(r * cells + s * n)]
        set_targets = [[[bufs[r * cells + j * n + w] for w in ws] for ws in worlds_of]
                       for j in range(s)]
        last = None
        lanes = 0
        for rels, sets in itertools.chain((first,), itertools.islice(
                stream, BLOCK_MODELS - 1)):
            if rels is not last:  # the stream repeats one rows object per run
                last = rels
                rel_targets = [bufs[i * cells + w * n + v]
                               for i, rows in enumerate(rels)
                               for w, row in enumerate(rows) for v in worlds_of[row]]
            byte, bit = lanes >> 3, 1 << (lanes & 7)
            for buf in rel_targets:
                buf[byte] |= bit
            for targets, ws in zip(set_targets, sets):
                for buf in targets[ws]:
                    buf[byte] |= bit
            lanes += 1
        masks = [int.from_bytes(buf, "little") for buf in bufs]
        yield (lanes,
               [BlockRelation(n, lanes, tuple(masks[i * cells:(i + 1) * cells]))
                for i in range(r)],
               [block_mask(masks[r * cells + j * n:r * cells + (j + 1) * n], lanes)
                for j in range(s)])


class _BlockCache:
    """Packed blocks per key, (model class, atom count, world count) or
    ("pdl", program atom count, atom count, world count), CACHE_BITS
    lane-mask bits at most over all of them."""

    def __init__(self):
        self.entries: dict[tuple, tuple] = {}  # key -> (all packed?, blocks)
        self.bits = 0

    def blocks(self, key: tuple, n: int, stream: Iterator[tuple]) -> Iterator[tuple]:
        """`_pack`'s blocks of the class's n-world models: the cached ones,
        then ones packed from the rest of the stream, each kept while the
        bound allows."""
        done, built = self.entries.get(key, (False, []))
        yield from built
        if done:
            return
        built = list(built)
        kept = True
        skip = sum(lanes for lanes, _, _ in built)
        for block in _pack(itertools.islice(stream, skip, None), n):
            lanes, rels, sets = block
            bits = lanes * (len(rels) * n * n + len(sets) * n)
            kept = kept and self.bits + bits <= CACHE_BITS
            if kept:
                built.append(block)
                self.bits += bits
                self.entries[key] = (False, built)
            yield block
        if kept:
            self.entries[key] = (True, built)


_BLOCKS = _BlockCache()


def scan(f, kind: str, atoms: tuple[str, ...], max_worlds: int, evaluate: Callable,
         bound: "int | None" = None) -> tuple:
    """The first (model, world) at which f fails among the models of a
    class with 1 to max_worlds worlds, or None if f holds throughout;
    paired with False if a world count was skipped.  kind is a
    `MODEL_CLASSES` kind, whose models value atoms; any other kind (`pdl`,
    `k`) names the classical models that interpret letters and value
    atoms: `a` alone under `k`, f's program atoms under `pdl`.  evaluate is
    the class's evaluator, `extension` or `pdl_extension`: one call
    answers a whole block.  The answer is the lowest failing lane of the
    first failing block, with that lane's least failing world: the pair a
    scan model by model meets first.

    With a bound, the scan stops before a world count n whose class may
    hold more models than it: a constructive class over k atoms has at
    most P(n) * 2^(n^2) * 2^(n(k+1)) (a preorder, any relation, the
    fallible set and a set per atom), and a classical one over r program
    atoms 2^(n^2 r + nk)."""
    classical = kind not in MODEL_CLASSES
    if classical:
        letters = ("a",) if kind == "k" else tuple(program_atoms(f))

        def make(worlds, rels, sets):
            return PdlModel(worlds, dict(zip(letters, rels)), dict(zip(atoms, sets)))
    else:
        def make(worlds, rels, sets):
            return BiModel(worlds, *rels, dict(zip(atoms, sets[1:])), sets[0], kind)
    for n in range(1, max_worlds + 1):
        if classical:
            size = 1 << n * n * len(letters) + n * len(atoms)
            key = ("pdl", len(letters), len(atoms), n)
            stream = _enumerate_pdl_raw(len(letters), len(atoms), n)
        else:
            size = len(_preorders(n)) << n * n + n * (len(atoms) + 1)
            key = (kind, len(atoms), n)
            stream = _enumerate_raw(kind, len(atoms), n)
        if bound is not None and size > bound:
            return None, False
        for lanes, rels, sets in _BLOCKS.blocks(key, n, stream):
            block = make(n * lanes, rels, sets)
            missing = block.full_mask() & ~evaluate(block, f)
            if missing:
                k = min((m & -m).bit_length() - 1
                        for m in lane_slices(missing, n, lanes) if m)
                at_k = lane_worlds(missing, n, lanes, k)
                model = make(n, [r.lane(k) for r in rels],
                             [lane_worlds(ws, n, lanes, k) for ws in sets])
                return (model, (at_k & -at_k).bit_length() - 1), True
    return None, True
