import contextlib
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from ckstar import blocks
from ckstar.blocks import BlockRelation, block_mask, lane_slices, lane_worlds
from ckstar.oracle import (
    EnumSpec,
    brute_force_decide,
    enumerate_formulas,
    random_formula,
    random_model,
)
from ckstar.relmodel import MODEL_CLASSES, BiModel, Relation, dump_model, mask_of, validate
from ckstar.solver import LOGICS, decide
from ckstar.syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Bot,
    Box,
    BoxP,
    BoxStar,
    Comp,
    Dia,
    DiaStar,
    FragmentError,
    FragmentTag,
    Imp,
    Neg,
    Or,
    PAtom,
    Star,
    check_fragment,
    formula_size,
    parse_formula,
    parse_pdl,
    render,
    variables,
)

from helpers import (
    alarm,
    chain_decide,
    iter_nodes,
    logic_corpus,
    rand_rel,
    random_pdl_model,
)
from reference_oracle import enumerate_models, enumerate_pdl_models, reference_decide
from truth_maps import falsifying_world


def test_enumeration_hand_counts():
    assert sum(1 for _ in enumerate_models(EnumSpec(1, (), "wk"))) == 2
    assert sum(1 for _ in enumerate_models(EnumSpec(1, (), "ck"))) == 3
    # Both the infallible and the fallible one-world bi-preorders qualify.
    assert sum(1 for _ in enumerate_models(EnumSpec(1, (), "cs4"))) == 2
    assert sum(1 for _ in enumerate_models(EnumSpec(1, (), "ws4"))) == 1


def test_enumerated_models_validate():
    for kind in ("ck", "wk", "cs4", "ws4"):
        for m in enumerate_models(EnumSpec(2, ("p",), kind)):
            assert validate(m, kind) == []


def _holds_everywhere(block, f) -> int:
    """An evaluator under which every formula holds at every world."""
    return block.full_mask()


def test_a_class_scanned_under_a_bound_fits_it(monkeypatch):
    """`scan` stops before a world count whose class holds one model more
    than its bound, so the size it reads a class by is never below the
    class's own: a class scanned under BLOCK_MODELS fits one block.  A
    classical class's size is exact, so at its size the scan runs it."""
    worlds = []
    original = blocks._BLOCKS.blocks
    monkeypatch.setattr(blocks._BLOCKS, "blocks",
                        lambda key, n, stream: worlds.append(n) or original(key, n, stream))

    def scanned(f, kind, k, n, bound):
        worlds.clear()
        answer = blocks.scan(f, kind, tuple(f"p{i}" for i in range(k)), n,
                             _holds_everywhere, bound)
        return answer, worlds

    assert [len(blocks._preorders(n)) for n in (1, 2, 3)] == [1, 4, 29]
    for kind in MODEL_CLASSES:
        for n, k in [(1, k) for k in range(5)] + [(2, k) for k in range(5)] + [(3, 0)]:
            size = sum(1 for _ in blocks._enumerate_raw(kind, k, n))
            assert scanned(Bot(), kind, k, n, size - 1) == \
                ((None, False), list(range(1, n))), (kind, n, k)
    for r, k, n in itertools.product(range(3), range(3), (1, 2)):
        size = sum(1 for _ in blocks._enumerate_pdl_raw(r, k, n))
        assert size == 2 ** (n * n * r + n * k)
        # `pdl` interprets f's program atoms, `k` the program a alone.
        f = Bot()
        for i in range(r):
            f = BoxP(PAtom(f"l{i}"), f)
        # With no program atom and no atom every world count has one
        # model, so a bound of 0 stops before the first.
        below = list(range(1, n)) if r + k else []
        for kind, g in [("pdl", f)] + [("k", Bot())] * (r == 1):
            assert scanned(g, kind, k, n, size - 1) == \
                ((None, False), below), (kind, r, k, n)
            assert scanned(g, kind, k, n, size) == \
                ((None, True), list(range(1, n + 1))), (kind, r, k, n)


def _validated_candidates(max_worlds, atoms, kind):
    """Every BiModel up to the bound that `validate` accepts, built from
    every pre, mod, bot and valuation in nested ascending bit order."""
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        rels = [Relation(n, tuple(bits >> (n * w) & full for w in range(n)))
                for bits in range(1 << (n * n))]
        for pre, mod in itertools.product(rels, repeat=2):
            for bot in range(1 << n):
                for vals in itertools.product(range(1 << n), repeat=len(atoms)):
                    m = BiModel(n, pre, mod, dict(zip(atoms, vals)), bot, kind)
                    if validate(m, kind) == []:
                        yield m


@pytest.mark.parametrize("kind", ("ck", "wk", "cs4", "ws4"))
def test_enumeration_yields_exactly_the_validated_models_in_order(kind):
    for spec in (EnumSpec(2, ("p",), kind), EnumSpec(1, ("p", "q"), kind)):
        assert list(enumerate_models(spec)) == list(
            _validated_candidates(spec.max_worlds, spec.atoms, kind))


def _model_stream_pin(models) -> tuple[int, str]:
    """Count and sha256 prefix of a model stream, one repr a model."""
    h = hashlib.sha256()
    count = 0
    for m in models:
        count += 1
        rel = ((m.pre.rows, m.mod.rows, m.bot) if isinstance(m, BiModel)
               else sorted((a, r.rows) for a, r in m.rho.items()))
        h.update(repr((m.worlds, rel, sorted(m.val.items()))).encode() + b"\n")
    return count, h.hexdigest()[:16]


_ENUMERATION_PINS = {
    ("ck", 2, ("p", "q")): (717, "e313c8f5d5fea440"),
    ("ck", 3, ("p",)): (89252, "172274a6242cd22f"),
    ("wk", 2, ("p", "q")): (616, "0cda68095c08617e"),
    ("wk", 3, ("p",)): (66756, "0f24a20b834a0b6c"),
    ("cs4", 2, ("p", "q")): (205, "780070c3064b0f65"),
    ("cs4", 3, ("p",)): (6002, "57f978b47a7051a6"),
    ("ws4", 2, ("p", "q")): (156, "593eb1ff1fbde234"),
    ("ws4", 3, ("p",)): (3175, "b3b44a8466822c27"),
}


def test_enumeration_is_pinned():
    for (kind, max_worlds, atoms), pin in _ENUMERATION_PINS.items():
        got = _model_stream_pin(enumerate_models(EnumSpec(max_worlds, atoms, kind)))
        assert got == pin, (kind, max_worlds, atoms)
    assert _model_stream_pin(enumerate_pdl_models(2, ("a", "i"), ("p",))) == \
        (1032, "5eda73af5fd20e3a")


def test_enumeration_guard():
    for max_worlds in (5, 0, -1):
        with pytest.raises(ValueError):
            EnumSpec(max_worlds, (), "ck")


def test_brute_force_goldens():
    spec = EnumSpec(2, ("p",))
    assert brute_force_decide("ck_star", parse_formula("p->p"), spec).valid_up_to_bound
    v = brute_force_decide("ck_star", parse_formula("~<>false"), EnumSpec(2, ()))
    assert not v.valid_up_to_bound
    assert v.model.worlds == 2 and v.model.bot
    assert falsifying_world(v.model, parse_formula("~<>false")) == v.world
    w = brute_force_decide("wk_star", parse_formula("~<>false"), EnumSpec(2, ()))
    assert w.valid_up_to_bound


def test_brute_force_fragment_checks():
    with pytest.raises(FragmentError):
        brute_force_decide("cs4", parse_formula("[*]p"), EnumSpec(2, ("p",)))
    with pytest.raises(ValueError):
        brute_force_decide("ck_star", parse_formula("p"), EnumSpec(2, ()))
    with pytest.raises(FragmentError):
        brute_force_decide("k_star", parse_pdl("[i]p"), EnumSpec(2, ("p",)))


_INPUTS = (
    parse_formula("<>p"),                       # outside the diamond-free fragment
    parse_formula("[*]p"),                      # outside the iteration-free fragment
    parse_formula("p_bot"),                     # the reserved atom
    parse_pdl("p & q"),                         # in both languages
    parse_pdl("[a]p"),                          # PDL, single-program fragment
    parse_pdl("[i]p"),                          # PDL, outside that fragment
)


def _accepts(run) -> bool:
    try:
        run()
    except FragmentError:
        return False
    return True


@pytest.mark.parametrize("f", _INPUTS, ids=render)
@pytest.mark.parametrize("logic", LOGICS)
def test_decide_and_oracle_accept_the_same_inputs(logic, f):
    spec = EnumSpec(1, tuple(variables(f)))
    assert _accepts(lambda: decide(logic, f)) == \
        _accepts(lambda: brute_force_decide(logic, f, spec))


def test_pdl_input_is_checked_node_by_node():
    # A constructive box under a PDL root: neither entry point may reach
    # the PDL closure or evaluator with it.
    f = And(Box(Atom("p")), Atom("q"))
    assert not check_fragment(f, None)
    with pytest.raises(FragmentError):
        decide("pdl", f)
    with pytest.raises(FragmentError):
        brute_force_decide("pdl", f, EnumSpec(1, ("p", "q")))


_P, _A = Atom("p"), PAtom("a")
# A well-formed node of every class, a leaf of each named class whose name
# is no string, and a string, to put in every position.
_FILLERS = (Bot(), _P, And(_P, _P), Or(_P, _P), Imp(_P, _P), Box(_P), Dia(_P),
            BoxStar(_P), DiaStar(_P), _A, Comp(_A, _A), Star(_A), Neg(_P),
            BoxP(_A, _P), Atom(3), PAtom(3), "x")


def _placed(node, fillers) -> list:
    """node with each filler in turn at each of its child positions."""
    return [dataclasses.replace(node, **{field.name: filler})
            for field in dataclasses.fields(node)
            if not isinstance(getattr(node, field.name), str)
            for filler in fillers]


# Every class in every position one level down, and those trees again
# under a constructive box and in both positions of a PDL box, so that a
# bad node also sits below a good one, as in a box over `Star(Box(p))`.
_ONE_LEVEL = [t for node in _FILLERS[:-1] for t in _placed(node, _FILLERS)]
_HAND_BUILT = _ONE_LEVEL + [t for node in (Box(_P), BoxP(_A, _P))
                            for t in _placed(node, _ONE_LEVEL)]


def test_hand_built_trees_end_in_documented_errors():
    spec = EnumSpec(1, ("p",))
    for f in _HAND_BUILT:
        for logic in LOGICS:  # FragmentError is a ValueError
            with contextlib.suppress(ValueError):
                decide(logic, f)
            with contextlib.suppress(ValueError):
                brute_force_decide(logic, f, spec)
        with contextlib.suppress(TypeError):
            render(f)


def _chain(make, leaf, n: int):
    for _ in range(n):
        leaf = make(leaf)
    return leaf


# Trees of n nested operators on one branch, and a logic that admits them.
_DEEP = {"box": ("ck_star", lambda n: _chain(Box, _P, n)),
         "negation": ("pdl", lambda n: _chain(Neg, _P, n)),
         "program": ("pdl", lambda n: BoxP(_chain(Star, _A, n - 1), _P))}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_the_gate_refuses_trees_nested_past_the_depth_cap(shape):
    logic, tree = _DEEP[shape]
    spec = EnumSpec(1, ("p",))
    decide(logic, tree(MAX_DEPTH))
    brute_force_decide(logic, tree(MAX_DEPTH), spec)
    for n in (MAX_DEPTH + 1, 1200):
        with pytest.raises(FragmentError, match="nests more than"):
            decide(logic, tree(n))
        with pytest.raises(FragmentError, match="nests more than"):
            brute_force_decide(logic, tree(n), spec)


def test_the_gate_refuses_trees_past_the_node_cap():
    # Each level shares its subtree twice, so 40 levels are 2^41 - 1 node
    # occurrences over 41 distinct nodes: a walk that counts paths never
    # ends, and the gate must refuse the tree by the node count first.
    # Within the cap, only the gate counts occurrences: the maps and the
    # evaluators read each distinct node once, so 16 levels (131,071
    # occurrences, 17 distinct nodes) decide at once under every
    # constructive logic.
    def shared(n):
        return _chain(lambda g: And(g, g), _P, n)

    spec = EnumSpec(1, ("p",))
    with alarm(5, "gate on a tree of shared subtrees"):
        decide("ck_star", shared(10))  # 2,047 occurrences: within the cap
        for logic in ("ck_star", "wk_star", "ck_star_box", "cs4", "ws4"):
            assert not decide(logic, shared(16)).valid, logic
        assert not brute_force_decide("ck_star", shared(16), spec).valid_up_to_bound
        for run in (lambda: decide("ck_star", shared(40)),
                    lambda: brute_force_decide("ck_star", shared(40), spec)):
            with pytest.raises(FragmentError, match="nodes"):
                run()


def test_brute_force_pdl():
    v = brute_force_decide("k_star", parse_pdl("[a*]p -> [a][a*]p"), EnumSpec(2, ("p",)))
    assert v.valid_up_to_bound
    w = brute_force_decide("k_star", parse_pdl("[a]p -> p"), EnumSpec(2, ("p",)))
    assert not w.valid_up_to_bound


def test_pdl_oracle_interprets_only_the_formulas_programs():
    # Over all of i, m and a, three worlds are about 1e9 models.
    with alarm(5, "pdl oracle at 3 worlds"):
        assert brute_force_decide("pdl", parse_pdl("p|!p"), EnumSpec(3)).valid_up_to_bound
        v = brute_force_decide("pdl", parse_pdl("[i]p -> [i][i]p"), EnumSpec(3))
    assert not v.valid_up_to_bound and set(v.model.rho) == {"i"}
    assert falsifying_world(v.model, parse_pdl("[i]p -> [i][i]p")) == v.world
    k = brute_force_decide("k_star", parse_pdl("p"), EnumSpec(1))
    assert set(k.model.rho) == {"a"}


def test_random_model_determinism_and_validity():
    spec = EnumSpec(4, ("p", "q"), "ck")
    assert dump_model(random_model(7, spec)) == dump_model(random_model(7, spec))
    for kind in ("ck", "wk", "cs4", "ws4"):
        for max_worlds in range(1, 5):
            s = EnumSpec(max_worlds, ("p", "q"), kind)
            if kind in ("cs4", "ws4") and max_worlds < 2:
                # A doubled model cannot fit in one world.
                with pytest.raises(ValueError):
                    random_model(0, s)
                continue
            for seed in range(150):
                m = random_model(seed, s)
                assert validate(m, kind) == []
                assert m.kind == kind
                assert 1 <= m.worlds <= max_worlds


def test_random_pdl_model_determinism():
    a = random_pdl_model(3, 3)
    b = random_pdl_model(3, 3)
    assert a == b


def test_random_formula_determinism_and_coverage():
    f = random_formula(5, 3, ("p", "q"))
    assert f == random_formula(5, 3, ("p", "q"))
    for fragment, names in (
        (FragmentTag.LSTAR, {"Bot", "Atom", "And", "Or", "Imp",
                             "Box", "Dia", "BoxStar", "DiaStar"}),
        (FragmentTag.LSTAR_BOX, {"Box", "BoxStar"}),
        (FragmentTag.L, {"Box", "Dia"}),
        (FragmentTag.LK_STAR, {"Atom", "Neg", "And", "Or", "BoxP"}),
    ):
        seen = set()
        for seed in range(1000):
            g = random_formula(seed, 3, ("p", "q"), fragment)
            assert check_fragment(g, fragment)
            seen |= {type(node).__name__ for node in iter_nodes(g)}
        assert names <= seen


# Per fragment: formula count and the first 16 hex digits of the sha256 of
# the rendered formulas joined by newlines.
_GENERATOR_PINS = {
    FragmentTag.LSTAR: (4652, "6e50ebc384196cf6"),
    FragmentTag.LSTAR_BOX: (1616, "b796150beef487bd"),
    FragmentTag.L: (1616, "d87c75b3d0eb43fb"),
    FragmentTag.LK_STAR: (398, "134516626824faf2"),
}


def test_generators_are_pinned():
    """The benchmark names its inputs by generator seed and rebuilds them
    as text, so `enumerate_formulas` and `random_formula` must keep their
    output formula for formula."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
        import record
    finally:
        sys.path.pop(0)
    record.check_generators()  # the corpus and hard pools
    for unary, tag in ((gen.LSTAR_UNARY, FragmentTag.LSTAR),
                       (gen.L_UNARY, FragmentTag.L)):  # the theorems pool
        for k in range(2 * gen.THEOREM_INSTANCES):
            assert parse_formula(gen.random_formula(
                k, gen.THEOREM_DEPTH, gen.PQ, unary)) == \
                random_formula(k, gen.THEOREM_DEPTH, gen.PQ, tag)
    for tag, pin in _GENERATOR_PINS.items():
        fs = enumerate_formulas(5, ("p", "q"), tag) + [
            random_formula(s, d, ("p", "q", "r"), tag)
            for d in (3, 6) for s in range(100)]
        digest = hashlib.sha256("\n".join(map(render, fs)).encode()).hexdigest()
        assert (len(fs), digest[:16]) == pin, tag


def test_enumerate_formulas_counts_and_order():
    corpus = enumerate_formulas(5, ("p", "q"))
    assert len(corpus) == 4452
    sizes = [formula_size(f) for f in corpus]
    assert sizes == sorted(sizes)
    assert len(set(corpus)) == len(corpus)
    small = enumerate_formulas(3, ("p",), FragmentTag.LK_STAR)
    assert all(check_fragment(f, FragmentTag.LK_STAR) for f in small)
    assert parse_pdl("[a]p") in small


def _answer(v) -> tuple:
    return v.valid_up_to_bound, v.model, v.world


@pytest.mark.parametrize("logic", LOGICS)
def test_block_scan_matches_the_reference_scan(logic):
    """Every answer, model and world included, is the one the scan model
    by model finds."""
    for max_worlds in (1, 2):
        spec = EnumSpec(max_worlds, ("p", "q"))
        for f in logic_corpus(logic):
            assert _answer(brute_force_decide(logic, f, spec)) == \
                _answer(reference_decide(logic, f, spec)[0]), (max_worlds, render(f))


def test_block_scan_past_the_first_block():
    # Bounded depth 2: the first falsifier needs a 3-world pre chain, which
    # comes late among the 3-world preorders.
    f = parse_formula("q | (q -> (p | ~p))")
    spec = EnumSpec(3, ("p", "q"))
    ref, passed = reference_decide("ck_star", f, spec)
    small = sum(1 for _ in enumerate_models(EnumSpec(2, ("p", "q"), "ck")))
    assert passed - small >= blocks.BLOCK_MODELS
    assert _answer(brute_force_decide("ck_star", f, spec)) == _answer(ref)


def test_small_blocks_and_a_full_cache(monkeypatch):
    """Blocks cut inside a world count, a cache that fills up mid-class,
    and a class resumed after its cached blocks all give the reference
    answers, and the cache stays within its bound."""
    monkeypatch.setattr(blocks, "BLOCK_MODELS", 64)
    monkeypatch.setattr(blocks, "CACHE_BITS", 20_000)
    monkeypatch.setattr(blocks, "_BLOCKS", blocks._BlockCache())
    spec = EnumSpec(2, ("p", "q"))
    cases = [(logic, f) for logic in ("ck_star", "wk_star", "cs4", "pdl")
             for f in logic_corpus(logic)[::7]]
    for _ in range(2):
        for logic, f in cases:
            assert _answer(brute_force_decide(logic, f, spec)) == \
                _answer(reference_decide(logic, f, spec)[0]), (logic, render(f))
    assert 0 < blocks._BLOCKS.bits <= blocks.CACHE_BITS
    assert any(not done for done, _ in blocks._BLOCKS.entries.values())
    # A class resumed after its cached blocks holds each model once.  The
    # cache keys a class by its atom count, and every case counts spec's.
    for key, (done, built) in blocks._BLOCKS.entries.items():
        if done and key[0] != "pdl":
            kind, count, n = key
            assert count == len(spec.atoms)
            assert sum(lanes for lanes, _, _ in built) == sum(
                m.worlds == n for m in enumerate_models(EnumSpec(n, spec.atoms, kind))), key


def _block(rels: list) -> BlockRelation:
    """Same-size relations as the lanes of one block relation."""
    n = rels[0].n
    return BlockRelation(n, len(rels), tuple(
        sum((r.rows[w] >> v & 1) << k for k, r in enumerate(rels))
        for w in range(n) for v in range(n)))


def test_block_relation_matches_each_lane():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for lanes in (1, 3, 70):
            rels = [rand_rel(rng, n) for _ in range(lanes)]
            # An empty and a full relation ride along in the wider blocks.
            if lanes > 1:
                rels[0] = Relation.empty(n)
                rels[1] = Relation.from_pairs(n, [(w, v) for w in range(n) for v in range(n)])
            others = [rand_rel(rng, n) for _ in range(lanes)]
            masks = [rng.randrange(1 << n) for _ in range(lanes)]
            block, other = _block(rels), _block(others)
            worlds = block_mask([mask_of(k for k, m in enumerate(masks) if m >> w & 1)
                                 for w in range(n)], lanes)
            box, outside, dia = block.box(worlds), block.box(~worlds), block.dia(worlds)
            comp, star = block.compose(other), block.star()
            assert block_mask(lane_slices(worlds, n, lanes), lanes) == worlds
            assert (box | dia) >> (n * lanes) == 0
            for k, (r, s, m) in enumerate(zip(rels, others, masks)):
                assert block.lane(k) == r
                assert lane_worlds(worlds, n, lanes, k) == m
                assert lane_worlds(box, n, lanes, k) == r.box(m)
                assert lane_worlds(outside, n, lanes, k) == r.box(~m)
                assert lane_worlds(dia, n, lanes, k) == r.dia(m)
                assert comp.lane(k) == r.compose(s)
                assert star.lane(k) == r.star()
    with pytest.raises(ValueError):
        _block([Relation.empty(2)]).compose(_block([Relation.empty(2)] * 2))


def test_block_star_matches_each_lane():
    # Seeded blocks of 1 to 3 worlds, some with a world whose row holds
    # only itself in every lane: the pivot `star` skips.
    rng = random.Random(31)
    for n in (1, 2, 3):
        for idle in (None, *range(n)):
            for lanes in (1, 5, 64):
                rels = [rand_rel(rng, n) for _ in range(lanes)]
                if idle is not None:
                    rels = [Relation(n, tuple(row & 1 << idle if w == idle else row
                                              for w, row in enumerate(r.rows)))
                            for r in rels]
                star = _block(rels).star()
                assert [star.lane(k) for k in range(lanes)] == [r.star() for r in rels]


def _model_json_digest(decider) -> str:
    """sha256 of the model JSON that decider (`decide` or the reduction
    chain alone), the oracle and the random model generator produce on
    fixed small inputs, one document a line."""
    pq = ("p", "q")
    lines = []
    for logics, tag in ((("ck_star", "wk_star"), FragmentTag.LSTAR),
                        (("cs4", "ws4"), FragmentTag.L)):
        fs = enumerate_formulas(4, pq, tag)
        for logic in logics:
            lines.extend(json.dumps(decider(logic, f).to_obj(), sort_keys=True)
                         for f in fs)
    for s in range(100):
        f = random_formula(s, 3, ("p",), FragmentTag.LK_STAR)
        lines.append(json.dumps(decider("k_star", f).to_obj(), sort_keys=True))
    for f in enumerate_formulas(4, pq):
        found = brute_force_decide("ck_star", f, EnumSpec(2, pq))
        lines.append("valid" if found.valid_up_to_bound
                     else f"{found.world} {dump_model(found.model)}")
    for kind in ("ck", "wk", "cs4", "ws4"):
        lines.extend(dump_model(random_model(s, EnumSpec(4, pq, kind)))
                     for s in range(50))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_model_json_is_pinned():
    """Countermodels and generated models keep their JSON document for
    document, whatever the in-memory format of a world set.  The chain's
    digest is the one recorded before `decide` scanned one world first;
    `decide`'s was re-recorded when it came to scan two worlds too."""
    assert _model_json_digest(chain_decide) == "39cba5f75525b705"
    assert _model_json_digest(decide) == "ec9a4a852905ca40"
