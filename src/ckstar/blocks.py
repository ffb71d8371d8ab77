"""Every small model of a class, as bit-sliced blocks, and the one scan that
evaluates a formula over them.

`_enumerate_raw` streams every validated n-world model of a class in a
fixed deterministic order, as relation rows and world sets; it filters
with the `relmodel` expressions that `validate` checks and states no model
condition itself.  `_enumerate_pdl_raw` is its classical counterpart.
Both read only counts: the names are attached by position when a model is
made.  `scan` packs these streams into blocks: disjoint unions of up to
BLOCK_MODELS same-size models over `relmodel.BlockRelation`s, one model
per bit lane.  Truth is invariant under disjoint unions, so one evaluator
call answers every model of a block.  Blocks are built at the first scan
that reaches them and kept per (model class, counts, world count), up to
CACHE_BITS bits of lane masks in all.  The oracle scans up to its world
bound; `decide` scans the one- and two-world models, each world count
while its class fits one block, before its reduction chain.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from .relmodel import (
    MODEL_CLASSES,
    BiModel,
    BlockRelation,
    PdlModel,
    Relation,
    bits_of,
    block_mask,
    confluence_gaps,
    lane_slices,
    lane_worlds,
)


def _relations(n: int) -> Iterator[Relation]:
    """Every relation on n worlds, ascending in the n*n-bit pattern whose
    bits n*w to n*w + n - 1 are row w."""
    full = (1 << n) - 1
    for bits in range(1 << (n * n)):
        yield Relation(n, tuple(bits >> (n * w) & full for w in range(n)))


def _preorders(n: int) -> list[Relation]:
    """The preorders among `_relations(n)`, in its order."""
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


def scan(f, kind: str, atoms: tuple[str, ...], letters: tuple[str, ...], n: int,
         evaluate: Callable) -> "tuple | None":
    """The first (model, world) among the n-world models of a class at
    which f fails, or None if f holds throughout.  kind is a
    `MODEL_CLASSES` kind, whose models value atoms; any other kind (`pdl`,
    `k`) names the classical models that interpret letters and value
    atoms.  evaluate is the class's evaluator, `extension` or
    `pdl_extension`: one call answers a whole block.  The answer is the
    lowest failing lane of the first failing block, with that lane's least
    failing world: the pair a scan model by model meets first."""
    if kind in MODEL_CLASSES:
        key = (kind, len(atoms), n)
        stream = _enumerate_raw(kind, len(atoms), n)

        def make(worlds, rels, sets):
            return BiModel(worlds, *rels, dict(zip(atoms, sets[1:])), sets[0], kind)
    else:
        key = ("pdl", len(letters), len(atoms), n)
        stream = _enumerate_pdl_raw(len(letters), len(atoms), n)

        def make(worlds, rels, sets):
            return PdlModel(worlds, dict(zip(letters, rels)), dict(zip(atoms, sets)))
    for lanes, rels, sets in _BLOCKS.blocks(key, n, stream):
        block = make(n * lanes, rels, sets)
        missing = block.full_mask() & ~evaluate(block, f)
        if missing:
            failing = 0
            for lane_mask in lane_slices(missing, n, lanes):
                failing |= lane_mask
            k = (failing & -failing).bit_length() - 1
            at_k = lane_worlds(missing, n, lanes, k)
            model = make(n, [r.lane(k) for r in rels],
                         [lane_worlds(ws, n, lanes, k) for ws in sets])
            return model, (at_k & -at_k).bit_length() - 1
    return None
