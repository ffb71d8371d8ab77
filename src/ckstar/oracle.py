"""Brute-force ground truth: exhaustive small-model search and seeded
random generators for property testing.

`enumerate_models` streams every validated model of a class up to a world
bound, in a fixed deterministic order.  It filters with the `relmodel`
expressions that `validate` checks and states no model condition itself.
`brute_force_decide` scans that stream with the extension evaluator.  The
module needs only the standard library.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterator

from .relmodel import (
    MODEL_KINDS,
    BiModel,
    PdlModel,
    Relation,
    confluence_gaps,
    mask_of,
    rel_star,
    validate,
)
from .semantics import extension, pdl_extension
from .syntax import FRAGMENTS, FragmentTag, program_atoms, program_size, variables
from .solver import check_input
from .translate import ck_model_to_cs4

MAX_ENUM_WORLDS = 4


@dataclass(frozen=True)
class EnumSpec:
    max_worlds: int
    atoms: tuple[str, ...] = ()
    kind: str = "ck"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
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


def _enumerate_raw(spec: EnumSpec) -> Iterator[tuple]:
    """(n, pre_rows, mod_rows, bot_mask, val_masks) in deterministic order.

    Each filter is a condition `relmodel.validate` checks: atomic
    persistence (an upset of pre), falsum persistence and seriality (a
    fallible set closed under both relations, each of its worlds with a
    mod-successor), infallibility, mod a preorder, and confluence."""
    infallible = spec.kind in ("wk", "ws4")
    preorder_mod = spec.kind in ("cs4", "ws4")
    for n in range(1, spec.max_worlds + 1):
        full = (1 << n) - 1
        preorders = _preorders(n)
        for pre in preorders:
            upsets = [u for u in range(full + 1) if pre.image(u) & ~u == 0]
            for mod in preorders if preorder_mod else _relations(n):
                if preorder_mod and any(confluence_gaps(pre, mod)):
                    continue
                serial = mod.dia(full)
                bots = [0] if infallible else [
                    b for b in range(full + 1) if b & ~serial == 0
                    and (pre.image(b) | mod.image(b)) & ~b == 0]
                for bot in bots:
                    choices = [u for u in upsets if u & bot == bot]
                    for vals in itertools.product(choices, repeat=len(spec.atoms)):
                        yield n, pre.rows, mod.rows, bot, vals


def enumerate_models(spec: EnumSpec) -> Iterator[BiModel]:
    """Every validated model of the class with at most max_worlds worlds,
    valuations over spec.atoms, no isomorphism reduction."""
    kind = spec.kind
    for n, pre, mod, bot, vals in _enumerate_raw(spec):
        yield BiModel(n, Relation(n, pre), Relation(n, mod),
                      dict(zip(spec.atoms, vals)), bot, kind)


def enumerate_pdl_models(max_worlds: int, prog_atoms: tuple[str, ...],
                         atoms: tuple[str, ...]) -> Iterator[PdlModel]:
    """All classical models up to the bound; relations unconstrained."""
    if max_worlds > MAX_ENUM_WORLDS:
        raise ValueError("bound exceeds the enumeration guard")
    for n in range(1, max_worlds + 1):
        rel_list = list(_relations(n))
        for rels in itertools.product(rel_list, repeat=len(prog_atoms)):
            rho = dict(zip(prog_atoms, rels))
            for vals in itertools.product(range(1 << n), repeat=len(atoms)):
                yield PdlModel(n, rho, dict(zip(atoms, vals)))


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
    models always interpret `a`)."""
    row = check_input(logic, f)
    if row.classical:
        prog_atoms = ("a",) if row.kind == "k" else tuple(program_atoms(f))
        models = enumerate_pdl_models(spec.max_worlds, prog_atoms,
                                      tuple(variables(f)))
        evaluate = pdl_extension
    else:
        if not set(variables(f)) <= set(spec.atoms):
            raise ValueError("spec.atoms must cover the formula's atoms")
        models = enumerate_models(EnumSpec(spec.max_worlds, spec.atoms,
                                           row.kind))
        evaluate = extension
    for m in models:
        ext = evaluate(m, f)
        if ext != m.full_mask():
            missing = m.full_mask() & ~ext
            return BoundedVerdict(False, spec.max_worlds, m,
                                  (missing & -missing).bit_length() - 1)
    return BoundedVerdict(True, spec.max_worlds)


# ---------------------------------------------------------------------------
# Random generators (repair-based; deterministic from the seed)


def random_model(seed: int, spec: EnumSpec) -> BiModel:
    """Seeded random model of spec's kind with at most spec.max_worlds
    worlds.  A `cs4`/`ws4` model doubles a constructive one, so it needs
    room for two worlds: ValueError below that."""
    rng = random.Random(seed)
    kind = spec.kind
    if kind in ("cs4", "ws4"):
        if spec.max_worlds < 2:
            raise ValueError(f"a {kind} model has at least 2 worlds, "
                             f"max_worlds is {spec.max_worlds}")
        base_spec = EnumSpec(spec.max_worlds // 2, spec.atoms,
                             "ck" if kind == "cs4" else "wk")
        return ck_model_to_cs4(_random_ck(rng, base_spec))
    return _random_ck(rng, spec)


def _random_ck(rng: random.Random, spec: EnumSpec) -> BiModel:
    n = rng.randint(1, spec.max_worlds)
    density = 0.35
    pre = rel_star(Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < density]))
    mod_pairs = [(w, v) for w in range(n) for v in range(n)
                 if rng.random() < density]
    mod = Relation.from_pairs(n, mod_pairs)
    bot = 0
    if spec.kind == "ck":
        bot = mask_of(w for w in range(n) if rng.random() < 0.25)
        bot = pre.union(mod).forward_closure(bot)
        # Patch falsum seriality: a fallible world without successors sees itself.
        mod = Relation(n, tuple(row or bot & 1 << w for w, row in enumerate(mod.rows)))
        bot = pre.union(mod).forward_closure(bot)
    val = {}
    for a in spec.atoms:
        base = bot | mask_of(w for w in range(n) if rng.random() < 0.45)
        val[a] = base | pre.image(base)
    m = BiModel(n, pre, mod, val, bot, spec.kind)
    assert validate(m, spec.kind) == []
    return m


def _leaves(fragment: FragmentTag, atoms: tuple[str, ...]) -> list:
    """The fragment's leaves: falsum once, a named leaf per atom."""
    leaf_classes, _ = FRAGMENTS[fragment]
    return [leaf for cls in leaf_classes
            for leaf in ([cls(a) for a in atoms] if fields(cls) else [cls()])]


def _operators(fragment: FragmentTag) -> list:
    """The fragment's operators in table order, each as its constructor over
    formula children, the number of those children (the node class's
    fields, less the box program) and the nodes the operator adds."""
    _, operators = FRAGMENTS[fragment]
    return [(cls, len(fields(cls)), 1) if prog is None else
            (partial(cls, prog), len(fields(cls)) - 1, 1 + program_size(prog))
            for cls, prog in operators]


def random_formula(seed: int, depth: int, atoms: tuple[str, ...],
                   fragment: FragmentTag = FragmentTag.LSTAR):
    """Uniform over a leaf and the fragment's operators down to the depth
    bound."""
    rng = random.Random(seed)
    leaves = _leaves(fragment, atoms)
    choices = [None, *_operators(fragment)]  # None draws a leaf

    def go(d: int):
        op = rng.choice(choices) if d > 0 else None
        if op is None:
            return rng.choice(leaves)
        make, arity, _ = op
        return make(*[go(d - 1) for _ in range(arity)])

    return go(depth)


# ---------------------------------------------------------------------------
# Exhaustive formula corpus


def enumerate_formulas(max_size: int, atoms: tuple[str, ...],
                       fragment: FragmentTag = FragmentTag.LSTAR) -> list:
    """Every formula of the fragment with at most max_size AST nodes, in
    deterministic size-then-structure order: within a size, unary operators
    before binary ones, each in table order."""
    by_size: dict[int, list] = {1: _leaves(fragment, atoms)}
    ops = sorted(_operators(fragment), key=lambda op: op[1])
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
