import random

import pytest

from ckstar.relmodel import MODEL_KINDS, validate, rel_compose
from ckstar.semantics import extension, pdl_extension
from ckstar.solver import decide
from ckstar.syntax import (
    Atom,
    And,
    Bot,
    Box,
    BoxP,
    BoxStar,
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
    subformulas,
    variables,
)
from ckstar.translate import (
    TranslationError,
    ck_model_to_cs4,
    iota,
    kappa,
    omega,
    pdl_model_to_wk,
    tau,
    wk_model_to_ck,
)

from helpers import (
    alarm,
    balanced_text,
    bi_model,
    iter_nodes,
    kstar_to_lstar,
    pdl_model,
    rand_ck_model,
    rand_pdl_model,
    random_lkstar,
    random_lstar,
    stack_headroom,
)
from truth_maps import (
    ck_model_to_wk,
    k_model_to_ck,
    wk_generated_classical,
    wk_model_to_pdl,
)

p, q, pb = Atom("p"), Atom("q"), Atom("p_bot")
lkstar_formula = random_lkstar


# ---------------------------------------------------------------------------
# omega


def test_omega_goldens():
    assert omega(Bot()) == BoxStar(And(pb, Dia(pb)))
    assert omega(p) == p
    got = omega(Imp(p, Bot()))
    assert got == Imp(p, BoxStar(And(And(p, pb), Dia(pb))))


def test_falsum_image_nests_logarithmically():
    # Up to three atoms, four conjuncts with p_bot, it is right-nested.
    r = Atom("r")
    got = omega(Imp(And(r, And(q, p)), Bot())).right
    assert got == BoxStar(And(And(p, And(q, And(r, pb))), Dia(pb)))
    # It is built once per atom set, not once per formula.
    assert omega(Imp(Or(q, And(r, p)), Bot())).right is got
    # 64 atoms: one And per atom would need more frames to hash than the
    # headroom allows.
    f = parse_formula(balanced_text([f"p{i}" for i in range(64)], "|"))
    with stack_headroom(100):
        for logic in ("ck_star", "cs4"):
            assert not decide(logic, f).valid


def test_omega_rejects_p_bot():
    with pytest.raises(TranslationError):
        omega(Imp(pb, Bot()))


def test_omega_size_identity():
    rng = random.Random(99)
    for _ in range(300):
        f = random_lstar(rng, 4)
        k = sum(1 for g in str_nodes(f) if g == "Bot")
        n_vars = len(variables(f))
        expect = formula_size(f) + k * (2 * (n_vars + 1) + 2)
        assert formula_size(omega(f)) == expect


def str_nodes(f):
    return [type(g).__name__ for g in iter_nodes(f)]


# ---------------------------------------------------------------------------
# tau


def test_tau_goldens():
    assert tau(p) == parse_pdl("[i*]p")
    assert tau(Box(p)) == parse_pdl("[i*;m][i*]p")
    assert tau(DiaStar(Bot())) == BoxP(
        Star(PAtom("i")),
        Neg(BoxP(Star(PAtom("m")),
                 Neg(And(Atom("p_bot"), Neg(Atom("p_bot")))))))
    assert render(tau(Box(p))) == "[i*;m][i*]p"


def test_tau_size_bound():
    rng = random.Random(17)
    for _ in range(400):
        f = random_lstar(rng, 5)
        assert formula_size(tau(f)) <= 8 * formula_size(f) - 4
    # Tight on master-diamond chains.
    f = DiaStar(DiaStar(DiaStar(p)))
    assert formula_size(tau(f)) == 8 * formula_size(f) - 4


# ---------------------------------------------------------------------------
# iota and kappa


def test_iota_goldens():
    f = parse_pdl("p")
    assert iota(f) == Imp(BoxStar(Or(p, Imp(p, Bot()))), p)
    g = parse_pdl("[a]p")
    want_ant = BoxStar(And(Or(p, Imp(p, Bot())),
                           Or(Box(p), Imp(Box(p), Bot()))))
    assert iota(g) == Imp(want_ant, Box(p))
    assert check_fragment(iota(g), FragmentTag.LSTAR_BOX)


def test_iota_antecedent_nests_logarithmically():
    # 127 subformulas: one And per subformula would need more frames to
    # hash and print than the headroom allows.
    g = parse_pdl(balanced_text([f"p{i}" for i in range(64)], "|"))
    with stack_headroom(100):
        text = render(iota(g))
    assert parse_formula(text) == iota(g)
    # Up to four conjuncts the antecedent is right-nested.
    f = parse_pdl("[a](p & q)")
    ex = [Or(h, Imp(h, Bot())) for h in map(kstar_to_lstar, subformulas(f))]
    assert iota(f).left == BoxStar(And(ex[0], And(ex[1], And(ex[2], ex[3]))))


def test_iota_fragment_error():
    with pytest.raises(FragmentError):
        iota(parse_pdl("[i]p"))
    for text in ("[a;a]p", "[i]p", "[a][i]p"):
        with pytest.raises(FragmentError):
            kstar_to_lstar(parse_pdl(text))


def test_iota_quadratic_bound():
    rng = random.Random(19)
    for _ in range(300):
        f = lkstar_formula(rng, 4)
        s = formula_size(f)
        assert formula_size(iota(f)) <= 4 * s * s + 6 * s + 1


def test_kappa_goldens():
    assert kappa(parse_formula("[]p -> [][]p")) == parse_formula("[*]p -> [*][*]p")
    assert kappa(p) == p
    assert kappa(parse_formula("<><>p -> <>p")) == parse_formula("<*><*>p -> <*>p")
    with pytest.raises(FragmentError):
        kappa(BoxStar(p))


def test_kappa_and_iota_refuse_over_deep_trees():
    # Their walks recurse once per level: past MAX_DEPTH they refuse the
    # input, as `check_input` does, instead of overflowing the stack.
    boxes, negs = p, p
    for _ in range(5000):
        boxes, negs = Box(boxes), Neg(negs)
    with pytest.raises(FragmentError, match="nests more than"):
        kappa(boxes)
    with pytest.raises(FragmentError, match="nests more than"):
        iota(negs)


def test_kappa_and_iota_refuse_over_cap_shared_trees():
    # 40 levels of one shared subtree: 41 distinct nodes but about 2 * 10^12
    # node occurrences, which the fragment check would walk one by one.
    f = p
    for _ in range(40):
        f = And(f, f)
    with alarm(2, "kappa and iota on a shared tree past MAX_NODES"):
        with pytest.raises(FragmentError, match="nodes"):
            kappa(f)
        with pytest.raises(FragmentError, match="nodes"):
            iota(f)


# ---------------------------------------------------------------------------
# model constructions


def test_ck_model_to_wk_goldens():
    infallible = bi_model(1, [(0, 0)], [(0, 0)], {"p": {0}})
    wk = ck_model_to_wk(infallible)
    assert wk.val["p_bot"] == 0 and wk.bot == 0
    fallible = bi_model(1, [(0, 0)], [(0, 0)], bot={0})
    wk2 = ck_model_to_wk(fallible)
    assert wk2.val["p_bot"] == 0b1 and wk2.bot == 0
    assert validate(wk2, "wk") == []


def test_falsum_elimination_transfer():
    rng = random.Random(43)
    for _ in range(300):
        m = rand_ck_model(rng, 3)
        f = random_lstar(rng, 3)
        wk = ck_model_to_wk(m)
        assert validate(wk, "wk") == []
        g = omega(f)
        assert extension(m, f) == extension(wk, g)


def test_fallible_companion_round_trip():
    rng = random.Random(47)
    for _ in range(300):
        m = rand_ck_model(rng, 3, fallible=False)
        f = random_lstar(rng, 3)
        ck = wk_model_to_ck(m, f)
        assert validate(ck, "ck") == []
        assert extension(ck, f) == extension(m, omega(f))


def test_constructive_to_classical_transfer():
    rng = random.Random(53)
    for _ in range(300):
        m = rand_ck_model(rng, 3, fallible=False)
        f = random_lstar(rng, 3)
        pm = wk_model_to_pdl(m)
        assert extension(m, f) == pdl_extension(pm, tau(f))


def test_wk_model_to_pdl_rejects_fallible():
    fallible = bi_model(1, [(0, 0)], [(0, 0)], bot={0})
    from ckstar.semantics import InvalidModelError
    with pytest.raises(InvalidModelError):
        wk_model_to_pdl(fallible)


def test_classical_to_constructive_transfer():
    rng = random.Random(59)
    for _ in range(300):
        pm = rand_pdl_model(rng, 3)
        f = random_lstar(rng, 3)
        wk = pdl_model_to_wk(pm)
        assert validate(wk, "wk") == []
        assert extension(wk, f) == pdl_extension(pm, tau(f))


def test_pdl_model_to_wk_goldens():
    pm = pdl_model(2, {"i": [(0, 1)], "m": []}, {"p": {1}})
    wk = pdl_model_to_wk(pm)
    assert wk.val["p"] == 0b10
    none = pdl_model(2, {"i": [], "m": []}, {"p": {1}})
    assert pdl_model_to_wk(none).pre.pairs() == [(0, 0), (1, 1)]
    with pytest.raises(TranslationError):
        pdl_model_to_wk(pdl_model(1, {"i": []}, {}))


def test_identity_preorder_transfer():
    rng = random.Random(61)
    for _ in range(300):
        pm = rand_pdl_model(rng, 3, prog_atoms=("a",))
        f = lkstar_formula(rng, 3)
        ck = k_model_to_ck(pm)
        assert validate(ck, "wk") == []
        assert pdl_extension(pm, f) == extension(ck, kstar_to_lstar(f))


def test_generated_submodel_transfer():
    rng = random.Random(67)
    for _ in range(200):
        m = rand_ck_model(rng, 3, fallible=False)
        f = lkstar_formula(rng, 2)
        sub, classical, u = wk_generated_classical(m, f)
        assert validate(sub, "wk") == []
        for psi in subformulas(f):
            mapped = kstar_to_lstar(psi)
            assert pdl_extension(classical, psi) == extension(sub, mapped)


def test_generated_submodel_classical_case():
    m = bi_model(2, [(0, 0), (1, 1)], [(0, 1)], {"p": {1}}, kind="wk")
    f = parse_pdl("[a]p")
    sub, classical, u = wk_generated_classical(m, f)
    assert sub.worlds == 2 and u == 0b11
    assert classical.rho["a"].pairs() == [(0, 1)]


def test_doubling_construction_transfer():
    rng = random.Random(71)
    for _ in range(200):
        m = rand_ck_model(rng, 3)
        cs4 = ck_model_to_cs4(m)
        assert cs4.worlds == 2 * m.worlds
        assert validate(cs4, "cs4") == []
        if not m.bot:
            assert validate(cs4, "ws4") == []
        f = random_lstar(rng, 2)
        if not check_fragment(f, FragmentTag.L):
            continue
        base = extension(m, kappa(f))
        lifted = extension(cs4, f)
        # World v is copy v % 2 of world v // 2.
        for v in range(cs4.worlds):
            assert bool(lifted >> v & 1) == bool(base >> (v // 2) & 1)


def test_doubling_kind_for_every_input_kind():
    # An infallible model (wk or ws4) doubles into ws4, a fallible one (ck
    # or cs4) into cs4, and the double is a model of the class it names.
    doubled = {"ck": "cs4", "wk": "ws4", "cs4": "cs4", "ws4": "ws4"}
    assert set(doubled) == set(MODEL_KINDS)
    for kind, expected in doubled.items():
        m = bi_model(1, [(0, 0)], [(0, 0)], kind=kind)
        double = ck_model_to_cs4(m)
        assert double.kind == expected
        assert validate(double, expected) == [], kind


def test_cs4_one_world_remark():
    m = bi_model(1, [(0, 0)], [(0, 0)])
    cs4 = ck_model_to_cs4(m)
    # Copies of a star-related pair are linked per the accessibility cases.
    assert cs4.mod.has(0, 0) and cs4.mod.has(1, 0) and cs4.mod.has(1, 1)
    assert not cs4.mod.has(0, 1)


def test_master_reading_on_bipreorders():
    rng = random.Random(73)
    for _ in range(200):
        base = rand_ck_model(rng, 2)
        m = ck_model_to_cs4(base)  # a guaranteed CS4 model
        f = random_lstar(rng, 2)
        if not check_fragment(f, FragmentTag.L):
            continue
        assert extension(m, f) == extension(m, kappa(f))


def test_composed_relation_is_preorder():
    rng = random.Random(79)
    for _ in range(100):
        base = rand_ck_model(rng, 2)
        m = ck_model_to_cs4(base)
        composed = rel_compose(m.pre, m.mod)
        assert composed.is_reflexive()
        assert composed.transitivity_witness() is None
