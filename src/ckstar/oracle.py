"""Brute-force ground truth: exhaustive small-model search and seeded
random generators for property testing.

`_enumerate_raw` streams every validated n-world model of a class in a
fixed deterministic order, as relation rows and world sets; it filters
with the `relmodel` expressions that `validate` checks and states no model
condition itself.  `_enumerate_pdl_raw` is its classical counterpart.
`brute_force_decide` packs these streams into blocks: disjoint unions of
up to BLOCK_MODELS same-size models over `relmodel.BlockRelation`s, one
model per bit lane.  Truth is invariant under disjoint unions, so one
`extension` call answers every model of a block.  Blocks are built at the
first query that reaches them and kept per model class, up to CACHE_BITS
bits of lane masks in all.  The module needs only the standard library.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterator

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
    mask_of,
    rel_star,
    validate,
)
from .semantics import extension, pdl_extension
from .syntax import CHILDREN, FRAGMENTS, Bot, FragmentTag, formula_size, program_atoms
from .solver import check_input
from .translate import ck_model_to_cs4

MAX_ENUM_WORLDS = 4


@dataclass(frozen=True)
class EnumSpec:
    max_worlds: int
    atoms: tuple[str, ...] = ()
    kind: str = "ck"

    def __post_init__(self):
        if self.kind not in MODEL_CLASSES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.max_worlds < 1:
            raise ValueError(
                f"max_worlds must be at least 1, got {self.max_worlds}")
        if self.max_worlds > MAX_ENUM_WORLDS:
            raise ValueError(
                f"max_worlds {self.max_worlds} exceeds the enumeration guard "
                f"of {MAX_ENUM_WORLDS}")


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


def _enumerate_raw(kind: str, atoms: tuple[str, ...], n: int) -> Iterator[tuple]:
    """Every validated n-world model of the class with valuations over
    atoms, no isomorphism reduction, in deterministic order: pairs of
    relation rows (pre, mod) and world sets (bot, *vals).

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
                    (bot,), *[choices] * len(atoms)))


def _enumerate_pdl_raw(prog_atoms: tuple[str, ...], atoms: tuple[str, ...],
                       n: int) -> Iterator[tuple]:
    """Every classical n-world model, relations unconstrained, as pairs of
    relation rows (one per program atom) and valuations (one per atom)."""
    rows = [r.rows for r in _relations(n)]
    for rels in itertools.product(rows, repeat=len(prog_atoms)):
        yield from zip(itertools.repeat(rels), itertools.product(
            range(1 << n), repeat=len(atoms)))


# ---------------------------------------------------------------------------
# Blocks: the enumeration stream as bit-sliced disjoint unions

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
    """Packed blocks per (model class, world count), CACHE_BITS lane-mask
    bits at most over all of them."""

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


# ---------------------------------------------------------------------------
# Bounded decisions


@dataclass
class BoundedVerdict:
    valid_up_to_bound: bool
    max_worlds: int
    model: "BiModel | PdlModel | None" = None
    world: "int | None" = None


def brute_force_decide(logic: str, f, spec: EnumSpec) -> BoundedVerdict:
    """First falsifying (model, world) in enumeration order, or validity up
    to the bound.  The input language and the model class are the logic's
    row of the logic table; the kind named in `spec` is ignored.  A
    classical model interprets only the formula's program atoms (`k_star`
    models always interpret `a`).

    One `extension` (or `pdl_extension`) call evaluates a whole block,
    since truth is invariant under disjoint unions.  The answer is the
    lowest failing lane of the first failing block, with that lane's least
    failing world: the pair a scan model by model meets first."""
    row, atoms = check_input(logic, f)
    if row.classical:
        prog_atoms = ("a",) if row.kind == "k" else tuple(program_atoms(f))
        key = ("pdl", prog_atoms, atoms)
        stream = partial(_enumerate_pdl_raw, prog_atoms, atoms)

        def make(worlds, rels, sets):
            return PdlModel(worlds, dict(zip(prog_atoms, rels)),
                            dict(zip(atoms, sets)))
        evaluate = pdl_extension
    else:
        if not set(atoms) <= set(spec.atoms):
            raise ValueError("spec.atoms must cover the formula's atoms")
        key = (row.kind, spec.atoms)
        stream = partial(_enumerate_raw, row.kind, spec.atoms)

        def make(worlds, rels, sets):
            return BiModel(worlds, *rels, dict(zip(spec.atoms, sets[1:])),
                           sets[0], row.kind)
        evaluate = extension
    for n in range(1, spec.max_worlds + 1):
        for lanes, rels, sets in _BLOCKS.blocks(key + (n,), n, stream(n)):
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
                return BoundedVerdict(False, spec.max_worlds, model,
                                      (at_k & -at_k).bit_length() - 1)
    return BoundedVerdict(True, spec.max_worlds)


# ---------------------------------------------------------------------------
# Random generators (repair-based; deterministic from the seed)


def random_model(seed: int, spec: EnumSpec) -> BiModel:
    """Seeded random model of spec's kind with at most spec.max_worlds
    worlds.  A `cs4`/`ws4` model doubles a constructive one, so it needs
    room for two worlds: ValueError below that."""
    rng = random.Random(seed)
    base = MODEL_CLASSES[spec.kind].base
    if base is None:
        return _random_ck(rng, spec)
    if spec.max_worlds < 2:
        raise ValueError(f"a {spec.kind} model has at least 2 worlds, "
                         f"max_worlds is {spec.max_worlds}")
    base_spec = EnumSpec(spec.max_worlds // 2, spec.atoms, base)
    return ck_model_to_cs4(_random_ck(rng, base_spec))


def _random_ck(rng: random.Random, spec: EnumSpec) -> BiModel:
    n = rng.randint(1, spec.max_worlds)
    density = 0.35
    pre = rel_star(Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < density]))
    mod = Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < density])
    bot = 0
    if MODEL_CLASSES[spec.kind].fallible:
        bot = mask_of(w for w in range(n) if rng.random() < 0.25)
        bot = rel_star(pre.union(mod)).image(bot)
        # Patch falsum seriality: a fallible world without successors sees
        # itself, which keeps bot closed.
        mod = Relation(n, tuple(row or bot & 1 << w for w, row in enumerate(mod.rows)))
    val = {}
    for a in spec.atoms:
        base = bot | mask_of(w for w in range(n) if rng.random() < 0.45)
        val[a] = base | pre.image(base)
    m = BiModel(n, pre, mod, val, bot, spec.kind)
    assert validate(m, spec.kind) == []
    return m


def _grammar(fragment: FragmentTag, atoms: tuple[str, ...]) -> tuple[list, list]:
    """The fragment's leaves, falsum once and a named leaf per atom, and its
    operators in table order, each as its constructor over formula
    children, the number of those children and the nodes it adds."""
    leaf_classes, operators = FRAGMENTS[fragment]
    return ([leaf for cls in leaf_classes
             for leaf in ([Bot()] if cls is Bot else [cls(a) for a in atoms])],
            [(cls, CHILDREN[cls].arity, 1) if prog is None else
             (partial(cls, prog), CHILDREN[cls].arity, 1 + formula_size(prog))
             for cls, prog in operators])


def random_formula(seed: int, depth: int, atoms: tuple[str, ...],
                   fragment: FragmentTag = FragmentTag.LSTAR):
    """Uniform over a leaf and the fragment's operators down to the depth
    bound."""
    leaves, operators = _grammar(fragment, atoms)
    return _draw(random.Random(seed), depth, leaves, [None, *operators])


def _draw(rng: random.Random, depth: int, leaves: list, choices: list):
    """A formula of at most depth levels; the choice None draws a leaf."""
    op = rng.choice(choices) if depth > 0 else None
    if op is None:
        return rng.choice(leaves)
    make, arity, _ = op
    return make(*[_draw(rng, depth - 1, leaves, choices) for _ in range(arity)])


# ---------------------------------------------------------------------------
# Exhaustive formula corpus


def enumerate_formulas(max_size: int, atoms: tuple[str, ...],
                       fragment: FragmentTag = FragmentTag.LSTAR) -> list:
    """Every formula of the fragment with at most max_size AST nodes, in
    deterministic size-then-structure order: within a size, unary operators
    before binary ones, each in table order."""
    leaves, operators = _grammar(fragment, atoms)
    by_size: dict[int, list] = {1: leaves}
    ops = sorted(operators, key=lambda op: op[1])
    for s in range(2, max_size + 1):
        layer: list = []
        for make, arity, cost in ops:
            if arity == 1:
                layer.extend(make(f) for f in by_size.get(s - cost, []))
                continue
            for i in range(1, s - cost):
                for left in by_size[i]:
                    layer.extend(make(left, right)
                                 for right in by_size[s - cost - i])
        by_size[s] = layer
    return [f for s in range(1, max_size + 1) for f in by_size[s]]
