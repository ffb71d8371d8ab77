import json
import random

import pytest

from ckstar.relmodel import (
    MAX_WORLDS,
    BiModel,
    BlockRelation,
    ModelFormatError,
    ModelViolation,
    Relation,
    block_mask,
    dump_model,
    lane_slices,
    lane_worlds,
    load_model,
    mask_of,
    rel_compose,
    rel_star,
    validate,
)
from ckstar.oracle import EnumSpec, brute_force_decide, random_model
from ckstar.solver import decide
from ckstar.syntax import parse_formula, parse_pdl
from ckstar.translate import ck_model_to_cs4, pdl_model_to_wk, wk_model_to_ck

from helpers import alarm, bi_model, pdl_model
from reference_oracle import enumerate_models, enumerate_pdl_models
from truth_maps import identity, restrict_to_infallible


def rand_rel(rng, n):
    return Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.3])


def test_compose_goldens():
    r = Relation.from_pairs(2, [(0, 1)])
    s = Relation.from_pairs(2, [(1, 0)])
    assert rel_compose(identity(2), r) == r
    assert rel_compose(r, s) == Relation.from_pairs(2, [(0, 0)])
    assert rel_compose(r, Relation.empty(2)) == Relation.empty(2)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        rel_compose(Relation.empty(2), Relation.empty(3))


def test_star_goldens():
    assert rel_star(Relation.empty(3)) == identity(3)
    chain = Relation.from_pairs(3, [(0, 1), (1, 2)])
    expect = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert rel_star(chain) == expect
    # Warshall skips a world that reaches only itself: the identity at the
    # model-file cap closes in milliseconds, not seconds.
    with alarm(1, "rel_star of the MAX_WORLDS identity"):
        assert rel_star(identity(MAX_WORLDS)) == identity(MAX_WORLDS)


def test_star_is_least_fixpoint():
    rng = random.Random(3)
    for _ in range(100):
        r = rand_rel(rng, rng.randrange(1, 6))
        s = rel_star(r)
        assert rel_star(s) == s
        assert all(a | b == a for a, b in zip(s.rows, rel_compose(s, r).rows))
        assert s.is_reflexive()


def test_validate_trivial_ck():
    m = bi_model(1, [(0, 0)], [(0, 0)])
    assert validate(m, "ck") == []


def test_validate_falsum_seriality():
    m = bi_model(1, [(0, 0)], [], bot={0})
    conditions = {v.condition for v in validate(m, "ck")}
    assert "falsum-seriality" in conditions
    [v] = [v for v in validate(m, "ck") if v.condition == "falsum-seriality"]
    assert v.worlds == (0,)


def test_validate_confluence_witness():
    m = bi_model(3, [(0, 0), (1, 1), (2, 2), (1, 2)], [(0, 1)], kind="cs4")
    violations = validate(m, "cs4")
    assert any(v.condition == "not-confluent" and v.worlds == (0, 1, 2)
               for v in violations)
    # 0 R 1 and 0 R 2, 1 <= 3 and 2 <= 3 <= 4, and only 0 <= 0: no w' has
    # 0 <= w' R 3 or 0 <= w' R 4.  Mod is reflexive at 3 and 4 only.  Every
    # failing triple is listed, in (w, v, v') order.
    pre = rel_star(Relation.from_pairs(5, [(1, 3), (2, 3), (3, 4)]))
    mod = Relation.from_pairs(5, [(0, 1), (0, 2), (3, 3), (4, 4)])
    m = BiModel(5, pre, mod, {}, 0, "ck")
    assert [(v.condition, v.worlds) for v in validate(m, "cs4")] == [
        ("mod-not-preorder", (0,)), ("mod-not-preorder", (1,)),
        ("mod-not-preorder", (2,)),
        ("not-confluent", (0, 1, 3)), ("not-confluent", (0, 1, 4)),
        ("not-confluent", (0, 2, 3)), ("not-confluent", (0, 2, 4)),
    ]
    assert validate(m, "ck") == []


def test_validate_confluence_on_a_large_model():
    # Full relations are confluent.  A check that scans pre(w) for every
    # triple (w, v, v') takes minutes at 200 worlds.
    n = 200
    full = Relation(n, ((1 << n) - 1,) * n)
    m = BiModel(n, full, full, {}, 0, "cs4")
    with alarm(5, "confluence check of a 200-world model"):
        assert validate(m, "cs4") == []
    # Model files may declare up to MAX_WORLDS.  There a check that scans
    # every world for each row takes seconds even on the identity model;
    # one that visits only the set bits of each row, well under a second.
    ident = identity(MAX_WORLDS)
    with alarm(2, "preorder and confluence checks of a MAX_WORLDS model"):
        assert validate(BiModel(MAX_WORLDS, ident, ident, {}, 0, "cs4"), "cs4") == []


def _first_transitivity_gap(r):
    """The first w, then its first v, with v -> u and not w -> u for some
    u, and the last such u: what `transitivity_witness` reports."""
    for w in range(r.n):
        for v in range(r.n):
            us = [u for u in range(r.n) if r.has(w, v) and r.has(v, u)
                  and not r.has(w, u)]
            if us:
                return (w, v, us[-1])
    return None


def test_transitivity_witness():
    # World 0 sees 0, 1, 2; 1 sees 3 and 4 and 2 sees 4, so v = 1 and v = 2
    # both fail at w = 0, and world 1 fails too (3 -> 0).
    r = Relation.from_pairs(5, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 3), (1, 4),
                                (2, 2), (2, 4), (3, 3), (3, 0), (4, 4)])
    assert r.transitivity_witness() == (0, 1, 4)
    assert identity(4).transitivity_witness() is None
    rng = random.Random(11)
    for _ in range(300):
        r = rand_rel(rng, rng.randrange(1, 7))
        assert r.transitivity_witness() == _first_transitivity_gap(r)


def test_validate_pre_transitivity():
    # 0 <= 1 <= 2 without 0 <= 2: the only violation of a ck model.
    m = bi_model(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], [(0, 0), (1, 1), (2, 2)])
    assert validate(m, "ck") == [ModelViolation("pre-not-preorder", (0, 1, 2))]


def test_validate_mod_transitivity():
    # Reflexive mod with 0 R 1 R 2 and not 0 R 2, over the identity preorder.
    m = bi_model(3, [(0, 0), (1, 1), (2, 2)],
                 [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], kind="cs4")
    assert validate(m, "ck") == []
    assert validate(m, "cs4") == [ModelViolation("mod-not-preorder", (0, 1, 2))]


def test_validate_falsum_persistence():
    # Fallible world 0 sees the infallible world 1 by <=; 0 R 0 keeps it
    # serial, and atoms outside val are read as the fallible set.
    m = bi_model(2, [(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1)], bot={0})
    assert validate(m, "ck") == [ModelViolation("falsum-persistence", (0, 1))]


def test_validate_wk_implies_ck():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 4)
        m = BiModel(n, rel_star(rand_rel(rng, n)), rand_rel(rng, n),
                    {"p": mask_of(w for w in range(n) if rng.random() < 0.5)},
                    0, "wk")
        if validate(m, "wk") == []:
            assert validate(m, "ck") == []


def test_validate_detects_persistence_and_ex_falso():
    m = bi_model(2, [(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1)], {"p": {0}})
    assert any(v.condition == "atomic-persistence" and v.atom == "p"
               for v in validate(m, "ck"))
    m2 = bi_model(1, [(0, 0)], [(0, 0)], {"p": set()}, bot={0})
    assert any(v.condition == "atomic-ex-falso" for v in validate(m2, "ck"))


def test_restrict_to_infallible():
    m = bi_model(2, [(0, 0), (1, 1)], [(1, 1)], {"p": {1}}, bot={1})
    assert validate(m, "ck") == []
    small, idx = restrict_to_infallible(m)
    assert small.worlds == 1 and small.bot == 0
    assert idx == {0: 0}
    assert validate(small, "wk") == []

    already = bi_model(2, [(0, 0), (1, 1)], [(0, 1)], {"p": {1}})
    same, idx2 = restrict_to_infallible(already)
    assert same.worlds == 2 and idx2 == {0: 0, 1: 1}
    assert same.pre == already.pre and same.mod == already.mod


def test_dump_load_round_trip():
    models = [
        bi_model(1, [(0, 0)], [(0, 0)]),
        bi_model(2, [(0, 0), (1, 1)], [(1, 1)], {"p": {1}}, bot={1}),
        bi_model(3, [(0, 0), (1, 1), (2, 2), (1, 2)], [(0, 1)], kind="cs4"),
        pdl_model(2, {"i": [(0, 1)], "m": []}, {"p": {0}}),
    ]
    for m in models:
        assert load_model(dump_model(m)) == m


def test_dump_load_round_trip_at_the_world_cap():
    # Serialising visits only the set bits of each row and world set; one
    # that tests every cell of the identity relation at MAX_WORLDS takes
    # seconds, one that walks the set bits well under one.
    ident = identity(MAX_WORLDS)
    m = BiModel(MAX_WORLDS, ident, ident, {"p": mask_of(range(0, MAX_WORLDS, 3))},
                mask_of(range(1, MAX_WORLDS, 7)), "cs4")
    with alarm(2, "dump and load of a MAX_WORLDS model"):
        text = dump_model(m)
        assert load_model(text) == m
    assert json.loads(text)["pre"][-1] == [MAX_WORLDS - 1, MAX_WORLDS - 1]


def test_load_minimal_document():
    text = '{"kind":"ck","worlds":1,"pre":[[0,0]],"mod":[[0,0]],"val":{},"bot":[]}'
    m = load_model(text)
    assert m.worlds == 1 and m.kind == "ck"


def test_load_errors():
    with pytest.raises(ModelFormatError):
        load_model('{"kind":"ck","worlds":1,"pre":[],"mod":[],"val":{}}')  # no bot
    with pytest.raises(ModelFormatError):
        load_model('{"kind":"nope","worlds":1,"pre":[],"mod":[],"val":{},"bot":[]}')
    with pytest.raises(ModelFormatError):
        load_model('{"kind":"ck","worlds":1,"pre":[[0,7]],"mod":[],"val":{},"bot":[]}')
    with pytest.raises(ModelFormatError):
        load_model("not json")
    # Nesting past the JSON reader's recursion limit.
    for deep in ("[" * 200000, '{"a": ' * 5000):
        with pytest.raises(ModelFormatError, match="nests too deeply"):
            load_model(deep)


def test_world_count_is_capped():
    # Empty relations, so not even the unchecked loader allocates much.
    for kind, rels in (("ck", '"pre":[],"mod":[],"bot":[]'), ("pdl", '"rho":{}')):
        at_cap = f'{{"kind":"{kind}","worlds":{MAX_WORLDS},{rels},"val":{{}}}}'
        assert load_model(at_cap).worlds == MAX_WORLDS
        over = at_cap.replace(str(MAX_WORLDS), str(MAX_WORLDS + 1))
        with pytest.raises(ModelFormatError, match="at most"):
            load_model(over)


def test_dump_is_sorted():
    m = bi_model(2, [(1, 1), (0, 0)], [(1, 0), (0, 1)], {"q": {1, 0}, "p": {1}})
    text = dump_model(m)
    assert text.index('"bot"') < text.index('"kind"') < text.index('"mod"')
    assert '"mod": [[0, 1], [1, 0]]' in text
    assert '"q": [0, 1]' in text


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
            comp, star = rel_compose(block, other), rel_star(block)
            assert block_mask(lane_slices(worlds, n, lanes), lanes) == worlds
            assert (box | dia) >> (n * lanes) == 0
            for k, (r, s, m) in enumerate(zip(rels, others, masks)):
                assert block.lane(k) == r
                assert lane_worlds(worlds, n, lanes, k) == m
                assert lane_worlds(box, n, lanes, k) == r.box(m)
                assert lane_worlds(outside, n, lanes, k) == r.box(~m)
                assert lane_worlds(dia, n, lanes, k) == r.dia(m)
                assert comp.lane(k) == rel_compose(r, s)
                assert star.lane(k) == rel_star(r)
    with pytest.raises(ValueError):
        rel_compose(_block([Relation.empty(2)]), _block([Relation.empty(2)] * 2))


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
                assert [star.lane(k) for k in range(lanes)] == [rel_star(r) for r in rels]


def test_unmapped_atoms_default_to_bot():
    m = bi_model(2, [(0, 0), (1, 1)], [(1, 1)], {}, bot={1})
    assert m.val_mask("anything") == 0b10


def test_every_producer_yields_int_world_sets():
    """A set of worlds is one bit mask wherever a model comes from."""
    models = []
    for logic, text in (("ck_star", "p | ~<>false"), ("wk_star", "p -> <>p"),
                        ("ck_star_box", "p -> [*]p"), ("cs4", "p | ~<>false"),
                        ("ws4", "p -> []q")):
        models.append(decide(logic, parse_formula(text)).model)
    for logic in ("k_star", "pdl"):
        models.append(decide(logic, parse_pdl("p -> [a]p")).model)
    for kind in ("ck", "wk", "cs4", "ws4"):
        models += list(enumerate_models(EnumSpec(2, ("p",), kind)))[-3:]
        models += [random_model(s, EnumSpec(4, ("p", "q"), kind)) for s in range(5)]
    models += list(enumerate_pdl_models(2, ("a",), ("p",)))[-3:]
    models += [brute_force_decide("ck_star", parse_formula("[]p -> p"), EnumSpec(2, ("p",))).model,
               brute_force_decide("pdl", parse_pdl("[i]p -> p"), EnumSpec(2)).model]
    models += [load_model(dump_model(m)) for m in models]
    wk = bi_model(2, [(0, 0), (1, 1), (0, 1)], [(0, 1), (1, 1)], {"p": {1}}, kind="wk")
    models += [wk_model_to_ck(wk, parse_formula("p")),
               pdl_model_to_wk(pdl_model(2, {"i": [(0, 1)], "m": []}, {"p": {1}})),
               ck_model_to_cs4(bi_model(1, [(0, 0)], [(0, 0)], {"p": {0}}, bot={0}))]
    for m in models:
        assert m.val, m
        assert all(type(ws) is int for ws in m.val.values()), m
        if isinstance(m, BiModel):
            assert type(m.bot) is int, m
