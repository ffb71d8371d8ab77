import random

import pytest

from ckstar.relmodel import validate
from ckstar.semantics import (
    InvalidModelError,
    UnknownProgramAtomError,
    extension,
    pdl_satisfies,
    satisfies,
)
from ckstar.syntax import (
    Atom,
    Box,
    BoxP,
    BoxStar,
    Dia,
    FragmentTag,
    check_fragment,
    parse_formula,
    parse_pdl,
)

from helpers import bi_model, naive_satisfies, pdl_model, rand_ck_model, random_lstar
from truth_maps import falsifying_world, valid_in_model

p = Atom("p")


def test_trivial_implication():
    m = bi_model(1, [(0, 0)], [], {"p": {0}})
    assert satisfies(m, 0, parse_formula("p->p"))


def test_fallible_world_satisfies_diamond_falsum():
    m = bi_model(1, [(0, 0)], [(0, 0)], bot={0})
    assert satisfies(m, 0, parse_formula("<>false"))
    # At the fallible world itself falsum holds, so the negation still holds
    # there; falsifying the negation takes an infallible world that R-sees a
    # fallible one.
    assert satisfies(m, 0, parse_formula("~<>false"))
    two = bi_model(2, [(0, 0), (1, 1)], [(0, 1), (1, 1)], bot={1})
    assert validate(two, "ck") == []
    assert satisfies(two, 0, parse_formula("<>false"))
    assert not satisfies(two, 0, parse_formula("~<>false"))
    assert falsifying_world(two, parse_formula("~<>false")) == 0


def test_two_world_modalities():
    m = bi_model(2, [(0, 0), (1, 1)], [(0, 1)], {"p": {1}})
    assert satisfies(m, 0, Box(p))
    assert satisfies(m, 0, Dia(p))
    assert not satisfies(m, 0, BoxStar(p))


def test_agrees_with_naive_evaluator():
    rng = random.Random(23)
    for _ in range(300):
        m = rand_ck_model(rng, 3)
        f = random_lstar(rng, 3)
        w = rng.randrange(m.worlds)
        assert satisfies(m, w, f) == naive_satisfies(m, w, f)


def test_satisfies_alt_agreement():
    rng = random.Random(29)
    m = bi_model(2, [(0, 0), (1, 1)], [(0, 1)], {"p": {1}})
    assert naive_satisfies(m, 0, BoxStar(p), alt_boxstar=True) == \
        satisfies(m, 0, BoxStar(p))
    for _ in range(300):
        model = rand_ck_model(rng, 3)
        f = random_lstar(rng, 3)
        e = extension(model, f)
        for w in range(model.worlds):
            assert naive_satisfies(model, w, f, alt_boxstar=True) == bool(e >> w & 1)


def test_truth_persistence():
    rng = random.Random(31)
    for _ in range(200):
        m = rand_ck_model(rng, 4)
        f = random_lstar(rng, 3)
        e = extension(m, f)
        for w in range(m.worlds):
            if e >> w & 1:
                assert m.pre.rows[w] & ~e == 0


def test_ex_falso_lifts_for_diamond_free():
    rng = random.Random(37)
    for _ in range(200):
        m = rand_ck_model(rng, 4)
        if not m.bot:
            continue
        f = random_lstar(rng, 3)
        if not check_fragment(f, FragmentTag.LSTAR_BOX):
            continue
        assert m.bot & ~extension(m, f) == 0


def test_pdl_goldens():
    m = pdl_model(1, {"i": [], "m": []}, {"p": {0}})
    assert pdl_satisfies(m, 0, parse_pdl("[i*]p")) == pdl_satisfies(m, 0, parse_pdl("p"))
    assert not pdl_satisfies(m, 0, parse_pdl("<m>p"))
    assert pdl_satisfies(m, 0, parse_pdl("[m]p"))

    chain = pdl_model(3, {"a": [(0, 1), (1, 2)]}, {"p": {2}})
    assert pdl_satisfies(chain, 0, parse_pdl("<a*>p"))
    assert not pdl_satisfies(chain, 0, parse_pdl("<a>p"))


def test_pdl_unknown_program_atom():
    m = pdl_model(1, {"i": []}, {})
    with pytest.raises(UnknownProgramAtomError):
        pdl_satisfies(m, 0, parse_pdl("[m]p"))
    # A box whose program is not a program node.
    with pytest.raises(TypeError):
        pdl_satisfies(m, 0, BoxP("x", p))


def test_valid_in_model():
    m = bi_model(1, [(0, 0)], [], {"p": {0}})
    assert valid_in_model(m, parse_formula("p->p"))
    empty_val = bi_model(1, [(0, 0)], [])
    assert falsifying_world(empty_val, p) == 0


def test_world_and_model_errors():
    m = bi_model(1, [(0, 0)], [])
    with pytest.raises(IndexError):
        satisfies(m, 3, p)
    broken = bi_model(2, [(0, 0)], [])  # not reflexive at 1
    with pytest.raises(InvalidModelError):
        satisfies(broken, 0, p)


def test_extension_matches_pointwise_satisfies():
    rng = random.Random(41)
    for _ in range(100):
        m = rand_ck_model(rng, 3)
        f = random_lstar(rng, 2)
        e = extension(m, f)
        for w in range(m.worlds):
            assert bool(e >> w & 1) == satisfies(m, w, f)
