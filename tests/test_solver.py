import itertools
import random

import pytest

from ckstar import solver
from ckstar.relmodel import PdlModel, Relation
from ckstar.semantics import pdl_satisfies, satisfies
from ckstar.solver import (
    LOGICS,
    decide,
    fl_closure,
    pdl_satisfiable,
    pdl_satisfiable_exhaustive,
    pdl_valid,
)
from ckstar.syntax import (
    MAX_DEPTH,
    BoxP,
    Comp,
    FragmentError,
    Neg,
    PAtom,
    PdlAnd,
    PdlAtom,
    Star,
    formula_size,
    parse_formula,
    parse_pdl,
    render,
    variables,
)
from ckstar.translate import iota

from helpers import random_lstar, random_pdl


def closure_set(f):
    return set(fl_closure(f).formulas)


def independent_closure(f):
    """Fixpoint of the closure rules, computed by naive re-scanning."""
    out = {f}
    changed = True
    while changed:
        changed = False
        for g in list(out):
            new = []
            if isinstance(g, Neg):
                new = [g.body]
            elif hasattr(g, "left"):
                new = [g.left, g.right]
            elif isinstance(g, BoxP):
                p = g.prog
                if isinstance(p, PAtom):
                    new = [g.body]
                elif isinstance(p, Comp):
                    new = [BoxP(p.left, BoxP(p.right, g.body))]
                elif isinstance(p, Star):
                    new = [g.body, BoxP(p.body, g)]
            for h in new:
                if h not in out:
                    out.add(h)
                    changed = True
    return out


def test_fl_closure_goldens():
    assert closure_set(parse_pdl("p")) == {parse_pdl("p")}
    f = parse_pdl("[a*]p")
    assert closure_set(f) == {f, parse_pdl("p"), parse_pdl("[a][a*]p")}
    g = parse_pdl("[i*;m]q")
    assert closure_set(g) == {
        g,
        parse_pdl("[i*][m]q"),
        parse_pdl("[m]q"),
        parse_pdl("q"),
        parse_pdl("[i][i*][m]q"),
    }


def test_fl_closure_matches_independent_enumeration_and_is_linear():
    rng = random.Random(5)
    for _ in range(200):
        f = random_pdl(rng, 3)
        assert closure_set(f) == independent_closure(f)
        assert len(fl_closure(f)) <= 2 * formula_size(f)


def test_satisfiable_goldens():
    clash = parse_pdl("<m>p & [m]!p")
    assert pdl_satisfiable(clash) is None
    assert pdl_satisfiable(parse_pdl("[i*]p & !p")) is None
    found = pdl_satisfiable(parse_pdl("![a*]p"))
    assert found is not None
    model, world = found
    assert not pdl_satisfies(model, world, parse_pdl("[a*]p"))
    assert model.worlds <= 2


def test_valid_goldens():
    assert pdl_valid(parse_pdl("[a](p&q) -> [a]p")).valid
    v = pdl_valid(parse_pdl("p"))
    assert not v.valid and v.model.worlds >= 1 and v.certified
    assert not pdl_satisfies(v.model, v.world, parse_pdl("p"))
    assert pdl_valid(parse_pdl("![a*]!p | [a*]!p")).valid


def enumerate_small_pdl(sizes, atoms=("p",)):
    """All PDL formulas up to the node budget over the given atoms, with
    programs drawn from a fixed small pool."""
    progs = [PAtom("a"), Star(PAtom("a")), Comp(PAtom("a"), PAtom("a")),
             Star(Comp(Star(PAtom("i")), PAtom("m")))]
    by_size = {1: [PdlAtom(a) for a in atoms]}
    for s in range(2, sizes + 1):
        layer = []
        for f in by_size.get(s - 1, []):
            layer.append(Neg(f))
        for prog in progs:
            from ckstar.syntax import program_size
            cost = 1 + program_size(prog)
            for f in by_size.get(s - cost, []):
                layer.append(BoxP(prog, f))
        for i in range(1, s - 1):
            for l in by_size.get(i, []):
                for r in by_size.get(s - 1 - i, []):
                    from ckstar.syntax import PdlAnd, PdlOr
                    layer.append(PdlAnd(l, r))
                    layer.append(PdlOr(l, r))
        by_size[s] = layer
    for s in sorted(by_size):
        yield from by_size[s]


def brute_pdl_satisfiable(f, max_worlds=3):
    """Exhaustive search over small models; None means none up to the bound."""
    from ckstar.solver import _program_atoms
    prog_atoms = _program_atoms(f) or ["a"]
    atoms = variables(f)
    for n in range(1, max_worlds + 1):
        cells = [(w, v) for w in range(n) for v in range(n)]
        for rels in itertools.product(range(1 << len(cells)), repeat=len(prog_atoms)):
            rho = {a: Relation.from_pairs(
                n, [cells[i] for i in range(len(cells)) if rels[j] >> i & 1])
                for j, a in enumerate(prog_atoms)}
            for valbits in itertools.product(range(1 << n), repeat=len(atoms)):
                val = {a: frozenset(w for w in range(n) if valbits[j] >> w & 1)
                       for j, a in enumerate(atoms)}
                m = PdlModel(n, rho, val)
                for w in range(n):
                    if pdl_satisfies(m, w, f):
                        return m, w
    return None


def test_engines_agree_on_exhaustive_tiny_corpus():
    count = 0
    for f in enumerate_small_pdl(6, atoms=("p", "q")):
        got_tab = pdl_satisfiable(f)
        got_exh = pdl_satisfiable_exhaustive(f)
        assert (got_tab is None) == (got_exh is None), render(f)
        count += 1
    assert count == 750


def test_engines_agree_on_random_formulas():
    rng = random.Random(11)
    compared = 0
    for _ in range(250):
        f = random_pdl(rng, 3)
        try:
            got_exh = pdl_satisfiable_exhaustive(f)
        except ValueError:
            continue
        got_tab = pdl_satisfiable(f)
        assert (got_tab is None) == (got_exh is None), render(f)
        compared += 1
    assert compared > 100


def test_deferred_star_keeps_its_modal_obligation():
    # The refuting branch of one starred negative can already be demanded
    # by another; the deferral must still be explored or the second star
    # never plants the modal step its own fulfillment runs along.
    f = parse_pdl("![m**]q & !!q")
    found = pdl_satisfiable(f)
    assert found is not None
    model, world = found
    assert pdl_satisfies(model, world, f)


def test_engines_agree_on_deeper_star_nests():
    rng = random.Random(101)
    compared = 0
    for _ in range(200):
        f = random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m"))
        try:
            got_exh = pdl_satisfiable_exhaustive(f, max_closure=16)
        except ValueError:
            continue
        got_tab = pdl_satisfiable(f)
        assert (got_tab is None) == (got_exh is None), render(f)
        compared += 1
    assert compared > 40


def test_tableau_agrees_with_bounded_model_search():
    rng = random.Random(13)
    for _ in range(60):
        f = random_pdl(rng, 2, atoms=("p",), prog_atoms=("a", "m"))
        brute = brute_pdl_satisfiable(f, max_worlds=2)
        got = pdl_satisfiable(f)
        if got is None:
            assert brute is None, render(f)
        # SAT answers are certified inside the engine already.


def test_elimination_is_monotone():
    stats = {}
    pdl_satisfiable(parse_pdl("![a*]p & [a](p | [a*]!p)"), stats=stats)
    rounds = stats["rounds"]
    assert rounds and rounds[-1] <= stats["nodes"]
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert len(rounds) <= 2 ** stats["closure"]


def test_search_stops_once_the_root_survives(monkeypatch):
    f = parse_pdl("[m*;m*]([(a;a)*][m;m]p | ![m**]q)")
    stats = {}
    model, world = pdl_satisfiable(f, stats=stats)
    assert pdl_satisfies(model, world, f)
    first = solver.CHECK_FIRST
    # Checkpoints past any graph size expand the whole graph first.
    monkeypatch.setattr(solver, "CHECK_FIRST", 1 << 60)
    full = {}
    assert pdl_satisfiable(f, stats=full) is not None
    assert stats["nodes"] < full["nodes"] and first < full["nodes"]


def test_depth6_seed17_decides_within_a_few_checkpoints(monkeypatch):
    # Its whole graph has 617,282 states; a countermodel lies in the first few.
    from ckstar.oracle import random_formula
    seen = []
    original = solver.pdl_satisfiable

    def recorded(g, stats=None):
        stats = {} if stats is None else stats
        seen.append(stats)
        return original(g, stats=stats)

    monkeypatch.setattr(solver, "pdl_satisfiable", recorded)
    f = random_formula(17, 6, ("p", "q", "r"))
    v = decide("ck_star", f)
    assert not v.valid and v.certified
    assert not satisfies(v.model, v.world, f)
    assert seen[0]["nodes"] <= 4096


# Graph counters of the PDL query behind each formula, recorded with the
# frozenset-keyed tableau that preceded dense state ids.  A change to the
# engine's internals that keeps its decomposition graph, expansion order
# and checkpoints keeps these exactly.  None as logic means
# `pdl_satisfiable` on the PDL formula itself.
GRAPH_PINS = [
    (None, "![a*]p & [a](p | [a*]!p)", 16, [12], 10),
    # `oracle.random_formula` (seed, depth) over p, q, r.
    ("ck_star", (0, 5), 256, [253], 69),
    ("ck_star", (17, 6), 256, [241], 94),
    # One `theorems` benchmark instance each of K and induction (ck_star)
    # and of 4 (cs4).
    ("ck_star", "[]((((false | p) | (p -> p))) -> (<>[]p)) -> "
                "([](((false | p) | (p -> p))) -> [](<>[]p))", 31, [26, 14, 5], 58),
    ("ck_star", "[*]((((false | p) | (p -> p))) -> [](((false | p) | (p -> p)))) -> "
                "((((false | p) | (p -> p))) -> [*](((false | p) | (p -> p))))",
     934, [899, 361, 318], 50),
    ("cs4", "[]((<>q & (q | p))) -> [][]((<>q & (q | p)))", 106, [106, 31], 29),
]


@pytest.mark.parametrize("logic, source, nodes, rounds, closure", GRAPH_PINS)
def test_decomposition_graph_is_pinned(logic, source, nodes, rounds, closure,
                                       monkeypatch):
    from ckstar.oracle import random_formula
    stats = {}
    if logic is None:
        pdl_satisfiable(parse_pdl(source), stats=stats)
    else:
        original = solver.pdl_satisfiable

        def recorded(g, stats=None, _seen=stats):
            return original(g, stats=_seen)

        monkeypatch.setattr(solver, "pdl_satisfiable", recorded)
        f = (random_formula(*source, ("p", "q", "r"))
             if isinstance(source, tuple) else parse_formula(source))
        decide(logic, f)
    assert (stats["nodes"], stats["rounds"], stats["closure"]) == \
        (nodes, rounds, closure)


def test_incremental_closure_matches_closing_from_scratch(monkeypatch):
    # Each state is closed only from the codes its discovery added; closing
    # it from every member must give the same state or the same clash.
    # Conjunctions of four random formulas, with the whole graph expanded,
    # give states with many members and many clashes.
    monkeypatch.setattr(solver, "CHECK_FIRST", 1 << 60)
    rng = random.Random(23)
    checked = clashes = partial = 0
    for _ in range(60):
        f = random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m"))
        for _ in range(3):
            f = PdlAnd(f, random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m")))
        engine = solver._Tableau(f)
        engine.build()
        for i in engine.order:
            state, seed = engine.states[i], engine.seeds[i]
            members = [c for c in state if c < engine.marker_base]
            full = engine._close(state, members)
            assert engine._close(state, seed) == full, render(f)
            checked += 1
            clashes += full is None
            partial += len(seed) < len(members)
    assert checked > 1000 and clashes > 50 and partial > 500


def test_exhaustive_engine_guard():
    f = random_pdl(random.Random(1), 6)
    with pytest.raises(ValueError):
        pdl_satisfiable_exhaustive(f, max_closure=2)


def test_decide_goldens():
    assert decide("wk_star", parse_formula("~<>false")).valid
    v = decide("ck_star", parse_formula("~<>false"))
    assert not v.valid
    from ckstar.relmodel import validate
    assert validate(v.model, "ck") == []
    assert v.model.bot, "countermodel should be fallible"
    assert not satisfies(v.model, v.world, parse_formula("~<>false"))

    assert decide("ck_star", parse_formula("[](p->q) -> ([]p -> []q)")).valid
    assert decide("ck_star", parse_formula("[](p->q) -> (<>p -> <>q)")).valid
    assert decide("cs4", parse_formula("[]p -> [][]p")).valid
    assert decide("cs4", parse_formula("<><>p -> <>p")).valid


def test_decide_kstar_and_iota_direction():
    g = parse_pdl("[a*]p -> [a][a*]p")
    assert decide("k_star", g).valid
    assert decide("ck_star_box", iota(g)).valid
    bad = parse_pdl("[a]p -> p")
    assert not decide("k_star", bad).valid
    assert not decide("ck_star_box", iota(bad)).valid


def test_decide_fragment_errors():
    with pytest.raises(FragmentError):
        decide("ck_star_box", parse_formula("<>p"))
    with pytest.raises(FragmentError):
        decide("cs4", parse_formula("[*]p"))
    with pytest.raises(FragmentError):
        decide("k_star", parse_pdl("[i]p"))
    with pytest.raises(FragmentError):
        decide("ck_star", parse_formula("p_bot", allow_p_bot=True))
    with pytest.raises(ValueError):
        decide("nope", parse_formula("p"))


# `satisfies` calls per Invalid verdict: one per model map back into a
# constructive class, on top of the single PDL certification.
_MODEL_MAPS = {"pdl": 0, "k_star": 0, "wk_star": 1, "ck_star_box": 1,
               "ck_star": 2, "ws4": 2, "cs4": 3}


@pytest.mark.parametrize("logic", LOGICS)
def test_each_layer_is_certified_once(logic, monkeypatch):
    calls = {"pdl_satisfies": 0, "satisfies": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(solver, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solver, name, counted)
    f = parse_pdl("[a]p") if logic in ("k_star", "pdl") else parse_formula("[]p")
    v = decide(logic, f)
    assert not v.valid and v.certified
    assert calls == {"pdl_satisfies": 1, "satisfies": _MODEL_MAPS[logic]}


@pytest.mark.parametrize("logic", LOGICS)
def test_decide_at_the_nesting_cap(logic):
    if logic in ("k_star", "pdl"):
        f = parse_pdl("<a>" * (MAX_DEPTH // 3) + "!" * (MAX_DEPTH % 3) + "p")
    elif logic == "ck_star_box":
        f = parse_formula("[*]~" * (MAX_DEPTH // 2) + "p")
    else:
        f = parse_formula("<>" * MAX_DEPTH + "p")
    assert not decide(logic, f).valid


def test_decide_invalid_verdicts_self_certify():
    rng = random.Random(17)
    logics = ["wk_star", "ck_star", "cs4", "ws4"]
    checked = 0
    for _ in range(60):
        logic = rng.choice(logics)
        depth = 3
        if logic in ("cs4", "ws4"):
            f = random_lstar(rng, depth)
            from ckstar.syntax import FragmentTag, check_fragment
            if not check_fragment(f, FragmentTag.L):
                continue
        else:
            f = random_lstar(rng, depth)
        v = decide(logic, f)
        if not v.valid:
            assert v.certified
            assert not satisfies(v.model, v.world, f)
            checked += 1
    assert checked > 10


def test_transitive_and_classical_logics_match_bounded_oracle():
    from ckstar.oracle import EnumSpec, brute_force_decide, random_formula
    from ckstar.syntax import FragmentTag
    for seed in range(80):
        f = random_formula(seed, 3, ("p", "q"), FragmentTag.L)
        for logic in ("cs4", "ws4"):
            v = decide(logic, f)
            o = brute_force_decide(logic, f, EnumSpec(2, ("p", "q")))
            if v.valid:
                assert o.valid_up_to_bound, (logic, render(f))
            elif v.model.worlds <= 2:
                assert not o.valid_up_to_bound, (logic, render(f))
        g = random_formula(seed, 3, ("p", "q"), FragmentTag.LK_STAR)
        v = decide("k_star", g)
        o = brute_force_decide("k_star", g, EnumSpec(2, ("p", "q")))
        if v.valid:
            assert o.valid_up_to_bound, render(g)
        elif v.model.worlds <= 2:
            assert not o.valid_up_to_bound, render(g)


def test_countermodel_size_within_exponential_bound():
    rng = random.Random(19)
    from ckstar.translate import tau
    for _ in range(40):
        f = random_lstar(rng, 3)
        v = decide("wk_star", f)
        if not v.valid:
            bound = 2 ** len(fl_closure(Neg(tau(f))))
            assert v.model.worlds <= bound


def test_kstar_countermodel_stays_classical():
    v = decide("k_star", parse_pdl("[a]p"))
    assert not v.valid
    assert isinstance(v.model, PdlModel)
    assert "a" in v.model.rho


def test_verdict_json_shape():
    v = decide("wk_star", parse_formula("p->p"))
    assert v.to_obj() == {"verdict": "valid"}
    w = decide("wk_star", parse_formula("p"))
    obj = w.to_obj()
    assert obj["verdict"] == "invalid" and "model" in obj and "world" in obj
