"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with -s to see
them live).  The corpus size is exhaustive over {p, q} up to
CKSTAR_ACCEPTANCE_MAX_NODES AST nodes (default 5, several thousand
formulas); property suites run CKSTAR_ACCEPTANCE_PROP_N instances each
(default 10**4).  The `hard` benchmark pool is checked against the
bounded oracle on every tenth formula, or on all 260 with
CKSTAR_ACCEPTANCE_HARD=1.
"""

import os
import time
from contextlib import contextmanager

import pytest

from ckstar.oracle import (
    EnumSpec,
    brute_force_decide,
    enumerate_formulas,
    random_formula,
    random_model,
)
from ckstar.relmodel import PdlModel, validate
from ckstar.semantics import extension, pdl_extension, pdl_satisfies, satisfies
from ckstar.solver import decide, fl_closure
from ckstar.syntax import (
    FragmentTag,
    Neg,
    check_fragment,
    formula_size,
    parse_formula,
    render,
    variables,
)
from ckstar.translate import (
    ck_model_to_cs4,
    iota,
    kappa,
    omega,
    pdl_model_to_wk,
    tau,
    wk_model_to_ck,
)
from ckstar.syntax import subformulas

from helpers import iter_nodes, kstar_to_lstar, naive_satisfies, random_pdl_model
from truth_maps import (
    ck_model_to_wk,
    k_model_to_ck,
    restrict_to_infallible,
    wk_generated_classical,
    wk_model_to_pdl,
)

MAX_NODES = int(os.environ.get("CKSTAR_ACCEPTANCE_MAX_NODES", "5"))
PROP_N = int(os.environ.get("CKSTAR_ACCEPTANCE_PROP_N", "10000"))
HARD_ALL = os.environ.get("CKSTAR_ACCEPTANCE_HARD", "0") == "1"
ATOMS = ("p", "q")


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS", flush=True)


def sat_query(logic: str, f) -> Neg:
    """The satisfiability query each pipeline hands to the PDL engine."""
    if logic in ("wk_star", "ck_star_box"):
        return Neg(tau(f))
    if logic == "ck_star":
        return Neg(tau(omega(f)))
    if logic == "cs4":
        return Neg(tau(omega(kappa(f))))
    if logic == "ws4":
        return Neg(tau(kappa(f)))
    return Neg(f)


GOLDEN = [
    ("wk_star", "~<>false", True),
    ("ck_star", "~<>false", False),
    ("ck_star", "[](p->q) -> ([]p -> []q)", True),
    ("ck_star", "[](p->q) -> (<>p -> <>q)", True),
    ("ck_star", "[*]p -> [*][*]p", True),
    ("ck_star", "<*><*>p -> <*>p", True),
    ("cs4", "[]p -> [][]p", True),
    ("cs4", "<><>p -> <>p", True),
]


@pytest.fixture(scope="module")
def records():
    """Every decision made by suites 1 and 2, for criteria 1/2/5/6."""
    golden = []
    t0 = time.perf_counter()
    for logic, text, _expected in GOLDEN:
        f = parse_formula(text)
        golden.append({
            "logic": logic, "formula": f, "text": text,
            "verdict": decide(logic, f),
        })
    kappa_pairs = []
    for text in ("[]p -> [][]p", "<><>p -> <>p"):
        f = parse_formula(text)
        kappa_pairs.append((text, decide("cs4", f), decide("ck_star", kappa(f))))
    golden_seconds = time.perf_counter() - t0
    for rec in golden:
        rec["closure"] = len(fl_closure(sat_query(rec["logic"], rec["formula"])))

    corpus = enumerate_formulas(MAX_NODES, ATOMS)
    rows = []
    for f in corpus:
        for logic in ("wk_star", "ck_star"):
            verdict = decide(logic, f)
            rows.append({
                "logic": logic,
                "formula": f,
                "verdict": verdict,
                "closure": len(fl_closure(sat_query(logic, f))),
                "oracle": brute_force_decide(logic, f, EnumSpec(3, ATOMS)),
            })
    return {
        "golden": golden,
        "golden_seconds": golden_seconds,
        "kappa_pairs": kappa_pairs,
        "corpus": rows,
    }


def test_criterion_1_golden_decision_table(records):
    with criterion(1, "golden decision table"):
        for (logic, text, expected), rec in zip(GOLDEN, records["golden"]):
            assert rec["verdict"].valid == expected, f"{logic} {text}"
        for text, via_cs4, via_kappa in records["kappa_pairs"]:
            assert via_cs4.valid == via_kappa.valid == True, text  # noqa: E712
        assert records["golden_seconds"] < 1.0, (
            f"golden table took {records['golden_seconds']:.3f}s")


def test_criterion_2_oracle_equivalence(records):
    with criterion(2, f"oracle equivalence on {len(records['corpus']) // 2} formulas"):
        # Diamond-free validity must not depend on fallibility.
        verdicts = {}
        for row in records["corpus"]:
            verdicts.setdefault(row["formula"], {})[row["logic"]] = row["verdict"]
        for f, pair in verdicts.items():
            if check_fragment(f, FragmentTag.LSTAR_BOX):
                assert pair["ck_star"].valid == pair["wk_star"].valid, render(f)
        spot = 0
        for row in records["corpus"]:
            verdict, oracle = row["verdict"], row["oracle"]
            name = f"{row['logic']} {render(row['formula'])}"
            if verdict.valid:
                assert oracle.valid_up_to_bound, f"solver-valid but oracle-invalid: {name}"
            elif verdict.model.worlds <= 3:
                assert not oracle.valid_up_to_bound, (
                    f"solver found a {verdict.model.worlds}-world "
                    f"countermodel but the oracle scan found none: {name}")
            if not oracle.valid_up_to_bound and spot % 97 == 0:
                ext = extension(oracle.model, row["formula"])
                assert not ext >> oracle.world & 1
            spot += 1


def _prop_seeds():
    return range(PROP_N)


def test_criterion_3_truth_preservation_suite():
    ck_spec = EnumSpec(4, ATOMS, "ck")
    wk_spec = EnumSpec(4, ATOMS, "wk")
    cs4_spec = EnumSpec(4, ATOMS, "cs4")
    failures = []

    def run(name, body):
        for i in _prop_seeds():
            body(1_000_000 + i)
        print(f"[acceptance]   property {name}: ok ({PROP_N} instances)",
              flush=True)

    with criterion(3, f"truth preservation, {PROP_N} instances per property"):
        def ck_to_wk(seed):
            m = random_model(seed, ck_spec)
            f = random_formula(seed ^ 0xA5A5, 3, ATOMS)
            assert extension(m, f) == extension(ck_model_to_wk(m), omega(f))
        run("fallible-to-infallible transfer", ck_to_wk)

        def wk_to_ck(seed):
            m = random_model(seed, wk_spec)
            f = random_formula(seed ^ 0x5A5A, 3, ATOMS)
            ck = wk_model_to_ck(m, f)
            assert validate(ck, "ck") == []
            assert extension(ck, f) == extension(m, omega(f))
        run("infallible-to-fallible transfer", wk_to_ck)

        def wk_to_pdl(seed):
            m = random_model(seed, wk_spec)
            f = random_formula(seed ^ 0x1111, 3, ATOMS)
            assert extension(m, f) == pdl_extension(wk_model_to_pdl(m), tau(f))
        run("constructive-to-classical transfer", wk_to_pdl)

        def pdl_to_wk(seed):
            pm = random_pdl_model(seed, 4)
            f = random_formula(seed ^ 0x2222, 3, ATOMS)
            wk = pdl_model_to_wk(pm)
            assert validate(wk, "wk") == []
            assert extension(wk, f) == pdl_extension(pm, tau(f))
        run("classical-to-constructive transfer", pdl_to_wk)

        def master_reading(seed):
            m = random_model(seed, cs4_spec)
            f = random_formula(seed ^ 0x3333, 3, ATOMS, FragmentTag.L)
            assert extension(m, f) == extension(m, kappa(f))
        run("master reading on bi-preorders", master_reading)

        def doubling(seed):
            m = random_model(seed, ck_spec)
            f = random_formula(seed ^ 0x4444, 3, ATOMS, FragmentTag.L)
            doubled = ck_model_to_cs4(m)
            assert validate(doubled, "cs4") == []
            if not m.bot:
                assert validate(doubled, "ws4") == []
            base = extension(m, kappa(f))
            lifted = extension(doubled, f)
            for w in range(m.worlds):
                for i in (0, 1):
                    assert bool(lifted >> (2 * w + i) & 1) == bool(base >> w & 1)
        run("world-doubling transfer", doubling)

        def classical_as_constructive(seed):
            pm = random_pdl_model(seed, 4, prog_atoms=("a",))
            f = random_formula(seed ^ 0x5555, 3, ATOMS, FragmentTag.LK_STAR)
            ck = k_model_to_ck(pm)
            assert validate(ck, "wk") == []
            assert pdl_extension(pm, f) == extension(ck, kstar_to_lstar(f))
        run("identity-preorder transfer", classical_as_constructive)

        def generated_submodel(seed):
            m = random_model(seed, wk_spec)
            f = random_formula(seed ^ 0x6666, 2, ATOMS, FragmentTag.LK_STAR)
            sub, classical, _u = wk_generated_classical(m, f)
            assert validate(sub, "wk") == []
            for psi in subformulas(f):
                assert pdl_extension(classical, psi) == \
                    extension(sub, kstar_to_lstar(psi))
        run("generated-submodel transfer", generated_submodel)

        def alt_master_box(seed):
            m = random_model(seed, ck_spec)
            f = random_formula(seed ^ 0x7777, 3, ATOMS)
            e = extension(m, f)
            for w in range(m.worlds):
                assert naive_satisfies(m, w, f, alt_boxstar=True) == \
                    bool(e >> w & 1)
        run("master-box alternative clause", alt_master_box)

        def persistence(seed):
            m = random_model(seed, ck_spec)
            f = random_formula(seed ^ 0x8888, 3, ATOMS)
            e = extension(m, f)
            for w in range(m.worlds):
                if e >> w & 1:
                    assert m.pre.rows[w] & ~e == 0
        run("truth persistence", persistence)

        def infallible_restriction(seed):
            m = random_model(seed, ck_spec)
            f = random_formula(seed ^ 0x9999, 3, ATOMS, FragmentTag.LSTAR_BOX)
            small, idx = restrict_to_infallible(m)
            assert validate(small, "wk") == []
            e = extension(m, f)
            es = extension(small, f) if small.worlds else 0
            for w, w2 in idx.items():
                assert bool(e >> w & 1) == bool(es >> w2 & 1)
        run("infallible restriction for diamond-free", infallible_restriction)

        assert not failures


def test_criterion_4_size_bounds():
    with criterion(4, "translation size bounds"):
        small = enumerate_formulas(MAX_NODES, ATOMS)
        deep = [random_formula(seed, 7, ("p", "q", "r")) for seed in range(1000)]
        for f in small + deep:
            s = formula_size(f)
            # Derived constant for the node-count convention: at most 8s-4
            # (the stated linear bound holds with a different constant).
            assert formula_size(tau(f)) <= 8 * s - 4
            k = _count_bots(f)
            expect = s + k * (2 * (len(variables(f)) + 1) + 2)
            got = formula_size(omega(f))
            assert got == expect
            assert got <= 2 * s * s + 5 * s

        small_k = enumerate_formulas(MAX_NODES, ATOMS, FragmentTag.LK_STAR)
        deep_k = [random_formula(seed, 6, ("p", "q"), FragmentTag.LK_STAR)
                  for seed in range(1000)]
        for f in small_k + deep_k:
            s = formula_size(f)
            assert formula_size(iota(f)) <= 4 * s * s + 6 * s + 1
        print(f"[acceptance]   checked {len(small) + len(deep)} constructive and "
              f"{len(small_k) + len(deep_k)} classical formulas", flush=True)


def _count_bots(f):
    from ckstar.syntax import Bot
    return sum(1 for g in iter_nodes(f) if isinstance(g, Bot))


def test_criterion_5_exponential_model_property(records):
    with criterion(5, "exponential countermodel bound"):
        checked = 0
        for rec in records["golden"] + records["corpus"]:
            verdict = rec["verdict"]
            if verdict.valid:
                continue
            assert verdict.model.worlds <= 2 ** rec["closure"], render(rec["formula"])
            checked += 1
        assert checked > 0
        print(f"[acceptance]   {checked} countermodels within bound", flush=True)


def test_criterion_6_self_certification(records):
    with criterion(6, "countermodel self-certification"):
        total = 0
        for rec in records["golden"] + records["corpus"]:
            verdict = rec["verdict"]
            if verdict.valid:
                continue
            if isinstance(verdict.model, PdlModel):
                assert not pdl_satisfies(verdict.model, verdict.world, rec["formula"])
            else:
                assert not satisfies(verdict.model, verdict.world, rec["formula"])
            total += 1
        print(f"[acceptance]   {total}/{total} invalid verdicts re-verified",
              flush=True)


def test_criterion_7_hard_pool_against_the_oracle():
    # The `hard` benchmark pool: seeded depth-5/6 formulas over p, q, r,
    # past the reach of the exhaustive corpus.
    atoms = ("p", "q", "r")
    step = 1 if HARD_ALL else 10
    pool = [random_formula(s, d, atoms)
            for d, n in ((5, 200), (6, 60)) for s in range(0, n, step)]
    with criterion(7, f"hard pool against the 2-world oracle, {len(pool)} formulas"):
        verdicts = []
        for f in pool:
            verdict = decide("ck_star", f)
            verdicts.append(verdict.valid)
            if not verdict.valid:
                assert validate(verdict.model, "ck") == [], render(f)
                assert not satisfies(verdict.model, verdict.world, f), render(f)
                if verdict.model.worlds > 2:
                    continue
            oracle = brute_force_decide("ck_star", f, EnumSpec(2, atoms))
            assert oracle.valid_up_to_bound == verdict.valid, render(f)
        assert True in verdicts and False in verdicts
        print(f"[acceptance]   {verdicts.count(True)} valid, "
              f"{verdicts.count(False)} invalid", flush=True)
