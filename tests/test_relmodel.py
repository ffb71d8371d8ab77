import random

import pytest

from ckstar.relmodel import (
    MAX_WORLDS,
    BiModel,
    ModelFormatError,
    Relation,
    bi_model,
    dump_model,
    load_model,
    mask_of,
    pdl_model,
    rel_compose,
    rel_star,
    restrict_to_infallible,
    validate,
)


def rand_rel(rng, n):
    return Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.3])


def test_compose_goldens():
    r = Relation.from_pairs(2, [(0, 1)])
    s = Relation.from_pairs(2, [(1, 0)])
    assert rel_compose(Relation.identity(2), r) == r
    assert rel_compose(r, s) == Relation.from_pairs(2, [(0, 0)])
    assert rel_compose(r, Relation.empty(2)) == Relation.empty(2)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        rel_compose(Relation.empty(2), Relation.empty(3))


def test_star_goldens():
    assert rel_star(Relation.empty(3)) == Relation.identity(3)
    chain = Relation.from_pairs(3, [(0, 1), (1, 2)])
    expect = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert rel_star(chain) == expect


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


def test_validate_wk_implies_ck():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 4)
        m = BiModel(n, rel_star(rand_rel(rng, n)), rand_rel(rng, n),
                    {"p": frozenset(w for w in range(n) if rng.random() < 0.5)},
                    frozenset(), "wk")
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
    assert small.worlds == 1 and small.bot == frozenset()
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


def test_unmapped_atoms_default_to_bot():
    m = bi_model(2, [(0, 0), (1, 1)], [(1, 1)], {}, bot={1})
    assert m.val_mask("anything") == mask_of({1})
