"""Brute-force ground truth: exhaustive small-model search and seeded
random generators for property testing.

`brute_force_decide` scans a logic's models up to its world bound with
one `blocks.scan` call, which walks the world counts and names the
program atoms a classical class interprets: each block of up to
`blocks.BLOCK_MODELS` same-size models is answered by one `extension` (or
`pdl_extension`) call, looked up here.  `decide` checks its input, scans
one and two worlds with the same function, then runs its reduction
chain; where both of its world counts run, its countermodel is the one
`brute_force_decide` at two worlds finds.  The module needs only the
standard library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .blocks import scan
from .relmodel import (
    MODEL_CLASSES,
    BiModel,
    PdlModel,
    Relation,
    mask_of,
    validate,
)
from .semantics import extension, pdl_extension
from .syntax import CHILDREN, FRAGMENTS, Bot, FragmentTag, formula_size
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

    The answer is one `blocks.scan`'s: the pair a scan model by model
    meets first."""
    row, atoms = check_input(logic, f)
    if row.classical:
        evaluate = pdl_extension
    else:
        if not set(atoms) <= set(spec.atoms):
            raise ValueError("spec.atoms must cover the formula's atoms")
        atoms, evaluate = spec.atoms, extension
    found, _ = scan(f, row.kind, atoms, spec.max_worlds, evaluate)
    if found is None:
        return BoundedVerdict(True, spec.max_worlds)
    return BoundedVerdict(False, spec.max_worlds, *found)


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
    pre = Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < density]).star()
    mod = Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < density])
    bot = 0
    if MODEL_CLASSES[spec.kind].fallible:
        bot = mask_of(w for w in range(n) if rng.random() < 0.25)
        bot = pre.union(mod).star().image(bot)
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
