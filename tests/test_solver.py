import dataclasses
import itertools
import random

import pytest

from ckstar import solver
from ckstar.relmodel import PdlModel, Relation, bits_of, validate
from ckstar.semantics import pdl_satisfies, program_relation, satisfies
from ckstar.solver import (
    LOGICS,
    CertificationError,
    decide,
    fl_closure,
    pdl_satisfiable,
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
    program_atoms,
    render,
    variables,
)
from ckstar.translate import iota

from elimination import alive_steps, fulfilled, reference_alive
from exhaustive import pdl_satisfiable_exhaustive
from helpers import (
    balanced_text,
    random_lstar,
    random_pdl,
    random_program,
    stack_headroom,
)


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
    assert not v.valid and v.model.worlds >= 1
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
    prog_atoms = program_atoms(f) or ["a"]
    atoms = variables(f)
    for n in range(1, max_worlds + 1):
        cells = [(w, v) for w in range(n) for v in range(n)]
        for rels in itertools.product(range(1 << len(cells)), repeat=len(prog_atoms)):
            rho = {a: Relation.from_pairs(
                n, [cells[i] for i in range(len(cells)) if rels[j] >> i & 1])
                for j, a in enumerate(prog_atoms)}
            for valbits in itertools.product(range(1 << n), repeat=len(atoms)):
                m = PdlModel(n, rho, dict(zip(atoms, valbits)))
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


def path_model(word, letters) -> PdlModel:
    """Worlds 0..len(word), with an x-step from k to k+1 where word[k] is x,
    and every letter interpreted."""
    n = len(word) + 1
    return PdlModel(n, {x: Relation.from_pairs(
        n, [(k, k + 1) for k, y in enumerate(word) if y == x]) for x in letters}, {})


def test_star_automaton_accepts_exactly_the_star_language():
    # The automaton read off the node table, run forward on every short
    # word, against the starred program's relation on that word's path.
    rng = random.Random(71)
    p = PdlAtom("p")
    for _ in range(200):
        star = Star(random_program(rng, 3))
        engine = solver._Tableau(Neg(BoxP(star, p)))
        accepting, size, rev = engine._automaton(
            engine.closure.index[BoxP(star, p)])
        letters = engine.alphabet
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                current = {0}  # the start state
                for x in word:
                    current = {r for r in range(size)
                               if not current.isdisjoint(rev[x][r])}
                relation = program_relation(path_model(word, letters), star)
                assert (not current.isdisjoint(accepting)) == relation.has(0, length), \
                    (render(BoxP(star, p)), word)


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


def reached(engine) -> list:
    """The ids reachable from the root along the successors the last pass
    followed."""
    seen, work = {engine.root}, [engine.root]
    while work:
        for t in engine.info[work.pop()][1]:
            if t not in seen:
                seen.add(t)
                work.append(t)
    return sorted(seen)


def assert_settled_as_reference(engine, present) -> int:
    """The alive bits of the states present, and each alive one's mark at
    every starred member's start bit, equal the reference elimination's on
    the subgraph they span; returns the number of marks compared."""
    reference = reference_alive(engine, present)
    goal = render(engine.closure.formulas[0])
    assert [engine.alive[u] for u in present] == [reference[u] for u in present], goal
    rev_steps, saturated, _ = alive_steps(engine, reference)
    pairs = 0
    for m, bit in engine.start_bit.items():
        expected = fulfilled(engine, m, rev_steps, saturated)
        for u in present:
            if reference[u]:
                assert bool(engine.marks[u] & bit) == bool(expected[u]), (goal, u, m)
                pairs += 1
    return pairs


def test_settlement_matches_global_elimination(monkeypatch):
    # A pass ends when the root's component settles, from the bottom of
    # Tarjan's stack.  Every state reachable along the successors the pass
    # followed is then settled for that subgraph by this pass, which
    # searched it from the root again: its alive bit must be the global
    # fixpoint's on the subgraph, and each alive state's mark at a starred
    # member's start bit must be the reference's own fulfilment, since
    # extraction reads its witness paths off the marks.  Once after every pass, then with every alternative
    # released from the start, where one pass settles the whole graph.
    passes = []
    compared_pairs = 0
    original = solver._Tableau._settle

    def compared(engine, part, floor):
        nonlocal compared_pairs
        original(engine, part, floor)
        if floor == 0:
            compared_pairs += assert_settled_as_reference(engine, reached(engine))
            passes.append(engine.passes)

    monkeypatch.setattr(solver._Tableau, "_settle", compared)
    # ![P*]A & [Q*]B & C: an eventuality that a box may keep from being
    # fulfilled, over random programs and formulas: enough of them that
    # passes 2 and 3 run often, although the sibling of a clashing
    # alternative is followed in the pass that finds the clash.
    rng = random.Random(29)
    pieces = dict(atoms=("p", "q"), prog_atoms=("a", "m"))
    formulas = [PdlAnd(Neg(BoxP(Star(random_program(rng, 2, ("a", "m"))),
                                random_pdl(rng, 3, **pieces))),
                       PdlAnd(BoxP(Star(random_program(rng, 2, ("a", "m"))),
                                   random_pdl(rng, 3, **pieces)),
                              random_pdl(rng, 3, **pieces)))
                for _ in range(240)]
    for f in formulas:
        pdl_satisfiable(f)
    monkeypatch.undo()
    monkeypatch.setattr(solver, "PASSES", 0)
    deleted = pairs = demands = 0
    for f in formulas:
        engine = solver._Tableau(f)
        alive = engine.build()
        if engine.root is None:  # the goal clashes, so no pass runs
            assert engine.passes == 0 and not engine.order
            continue
        assert engine.passes == 1 and reached(engine) == sorted(engine.order)
        assert alive == reference_alive(engine)
        deleted += bool(engine.rounds)
        pairs += assert_settled_as_reference(engine, engine.order)
        # A saturated state never holds both [x]B and ![x]B, so each demand
        # it spawns is clash-free as built: the entry lists every one.
        for i in engine.order:
            if engine.info[i][0] == "sat":
                for d in engine.info[i][1]:
                    state = engine.states[d]
                    assert not any(state >> (c ^ 1) & 1 for c in bits_of(state)), \
                        render(f)
                    demands += 1
    assert passes.count(2) > 30 and passes.count(3) > 10, passes
    assert compared_pairs > 5000 and deleted > 20 and pairs > 10000
    assert demands > 1000


def test_search_stops_once_the_root_survives(monkeypatch):
    f = parse_pdl("[m*;m*]([(a;a)*][m;m]p | ![m**]q)")
    stats = {}
    model, world = pdl_satisfiable(f, stats=stats)
    assert pdl_satisfies(model, world, f)
    # A pass cap of 0 releases every alternative from the start, so the
    # one pass searches the whole graph.
    monkeypatch.setattr(solver, "PASSES", 0)
    full = {}
    assert pdl_satisfiable(f, stats=full) is not None
    assert stats["nodes"] < full["nodes"] and full["passes"] == 1


def recorded_stats(monkeypatch) -> list:
    """The `stats` of every `pdl_satisfiable` call `decide` makes from now
    on, in call order."""
    seen = []
    original = solver.pdl_satisfiable

    def recorded(g, stats=None):
        stats = {} if stats is None else stats
        seen.append(stats)
        return original(g, stats=stats)

    monkeypatch.setattr(solver, "pdl_satisfiable", recorded)
    return seen


def test_depth6_seed17_decides_in_two_passes_over_500_states(monkeypatch):
    # Its whole graph has hundreds of thousands of states; the first pass
    # finds a countermodel among the first 45.
    from ckstar.oracle import random_formula
    seen = recorded_stats(monkeypatch)
    f = random_formula(17, 6, ("p", "q", "r"))
    v = decide("ck_star", f)
    assert not v.valid
    assert not satisfies(v.model, v.world, f)
    assert seen[0]["passes"] <= 2 and seen[0]["nodes"] <= 500


@pytest.mark.parametrize("n, cap", [(21, 500), (41, 2000), (99, 8000)])
def test_odd_negation_tower_decides_within_a_state_cap(n, cap, monkeypatch):
    # Before the search ran in passes, n = 27 expanded 65,536 states and
    # n = 41 passed 1.5 GB.  Each pass follows the first alternative of
    # each decomposition, so the one-world countermodel turns up in the
    # second pass.
    seen = recorded_stats(monkeypatch)
    f = parse_formula("~" * n + "p")
    v = decide("ck_star", f)
    assert not v.valid
    assert validate(v.model, "ck") == [] and not satisfies(v.model, v.world, f)
    assert seen[0]["nodes"] <= cap


def test_wide_disjunction_decides_within_a_state_cap(monkeypatch):
    # Refuting a disjunction of 512 conjunctions: 4096 states before the
    # search ran in passes, for a one-world countermodel.
    seen = recorded_stats(monkeypatch)
    f = parse_formula(balanced_text([f"(a{i} & b{i})" for i in range(512)], "|"))
    with stack_headroom(100):
        v = decide("wk_star", f)
    assert not v.valid and v.model.worlds == 1
    assert not satisfies(v.model, v.world, f)
    assert seen[0]["nodes"] <= 2048


# Graph counters of the PDL query behind each formula: `nodes` (distinct
# states expanded over all passes), `passes`, `rounds` (the live count of
# each settlement step that deleted states for an unfulfilled eventuality,
# over all passes in search order) and `closure`.  Every row was
# re-recorded when the search in passes replaced the checkpoints, and
# again when states were closed as they are discovered: closing a state
# and a clash take no graph node, and the sibling of a clashing
# alternative is followed in the same pass.  A change to the engine's
# internals that keeps its decomposition graph, expansion order and pass
# rules keeps them exactly.  None as logic means `pdl_satisfiable` on the
# PDL formula itself.
GRAPH_PINS = [
    (None, "![a*]p & [a](p | [a*]!p)", 2, 1, [], 10),
    # `oracle.random_formula` (seed, depth) over p, q, r.
    ("ck_star", (0, 5), 9, 1, [], 69),
    ("ck_star", (17, 6), 45, 1, [], 94),
    # One `theorems` benchmark instance each of K and induction (ck_star)
    # and of 4 (cs4).
    ("ck_star", "[]((((false | p) | (p -> p))) -> (<>[]p)) -> "
                "([](((false | p) | (p -> p))) -> [](<>[]p))", 22, 3, [2, 2, 2], 58),
    ("ck_star", "[*]((((false | p) | (p -> p))) -> [](((false | p) | (p -> p)))) -> "
                "((((false | p) | (p -> p))) -> [*](((false | p) | (p -> p))))",
     712, 3, [4, 10, 6, 16, 6, 35, 12, 75, 170, 3, 2], 50),
    ("cs4", "[]((<>q & (q | p))) -> [][]((<>q & (q | p)))", 75, 3, [4, 13, 34, 11, 2], 29),
    # Deep, star-heavy closures: an odd tower of ~ (Invalid, many branch
    # states) and right-nested implications (Valid, one deleting step per
    # nesting level, each in a component of two states).
    ("ck_star", "~" * 21 + "p", 327, 2, [16], 103),
    ("ck_star", "p->" * 20 + "p", 460, 3, [2] * 22, 65),
    ("ck_star", "p->" * 100 + "p", 10300, 3, [2] * 102, 305),
    # A goal that clashes as it is closed: no state, no pass.
    (None, "p & !p", 0, 0, [], 3),
]


@pytest.mark.parametrize("logic, source, nodes, passes, rounds, closure", GRAPH_PINS)
def test_decomposition_graph_is_pinned(logic, source, nodes, passes, rounds,
                                       closure, monkeypatch):
    from ckstar.oracle import random_formula
    if logic is None:
        stats = {}
        pdl_satisfiable(parse_pdl(source), stats=stats)
    else:
        seen = recorded_stats(monkeypatch)
        f = (random_formula(*source, ("p", "q", "r"))
             if isinstance(source, tuple) else parse_formula(source))
        decide(logic, f)
        stats, = seen
    assert (stats["nodes"], stats["passes"], stats["rounds"], stats["closure"]) == \
        (nodes, passes, rounds, closure)


def test_a_demand_can_close_to_the_state_that_spawned_it():
    # In [a*]<a>!p, the saturated state that holds !p demands {!p,
    # [a*]<a>!p} over a, which closes to that very state: a component of
    # one state that steps to itself, so it must be settled as a cycle.
    engine = solver._Tableau(parse_pdl("[a*]<a>!p"))
    engine.build()
    assert any(i in engine.info[i][1] for i in engine.order
               if engine.info[i][0] == "sat")
    assert not decide("pdl", parse_pdl("![a*]<a>!p")).valid


def test_a_clashing_demand_kills_its_saturated_state():
    # <a>(p & !p) saturates at once, and its one demand clashes once
    # closed: the state gets no successor and is dead, so the model comes
    # from the other disjunct, released in the second pass.
    f = parse_pdl("<a>(p & !p) | q")
    engine = solver._Tableau(f)
    alive = engine.build()
    first, second = engine.info[engine.root][1]
    negated_box = engine.closure.index[parse_pdl("[a]!(p & !p)")] << 1
    assert engine.states[first] >> negated_box & 1
    assert engine.info[first] == ("or", ()) and not alive[first] and alive[second]
    model, world = pdl_satisfiable(f)
    assert model.val.get("q", 0) >> world & 1 and engine.passes == 2


@pytest.mark.parametrize("logic", ["ck_star", "wk_star", "ck_star_box", "cs4", "ws4"])
def test_long_implication_chain_is_valid(logic):
    # Each nesting level adds an eventuality whose refutation needs the one
    # below deleted first; settling components bottom-up takes one step per
    # level instead of a global round over every state.
    assert decide(logic, parse_formula("p->" * 100 + "p")).valid


def test_incremental_closure_matches_closing_from_scratch(monkeypatch):
    # Each state is closed as it is discovered, only from the codes its
    # discovery added; closing it from every member must give the same
    # state or the same clash.  Conjunctions of four random formulas, with
    # the whole graph expanded, give states with many members and many
    # clashes.
    monkeypatch.setattr(solver, "PASSES", 0)
    discovered = []
    original = solver._Tableau._discover

    def recorded(engine, state, seed):
        discovered.append((state, seed))
        return original(engine, state, seed)

    monkeypatch.setattr(solver._Tableau, "_discover", recorded)
    rng = random.Random(23)
    checked = clashes = partial = 0
    for _ in range(60):
        f = random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m"))
        for _ in range(3):
            f = PdlAnd(f, random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m")))
        discovered.clear()
        engine = solver._Tableau(f)
        engine.build()
        for state, seed in discovered:
            members = bits_of(state & (1 << engine.marker_base) - 1)
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


def test_extraction_does_not_recurse_per_decomposition():
    # Refuting a disjunction of 64 conjunctions takes 64 branch
    # decompositions before the first saturated state.
    f = parse_formula(balanced_text([f"(a{i} & b{i})" for i in range(64)], "|"))
    with stack_headroom(100):
        v = decide("wk_star", f)
    assert not v.valid and v.model.worlds == 1


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
    assert not v.valid
    assert calls == {"pdl_satisfies": 1, "satisfies": _MODEL_MAPS[logic]}


@pytest.mark.parametrize("logic", ["cs4", "ws4"])
def test_countermodel_is_labelled_with_its_class(logic):
    # The doubled model is named after the class of the model it doubles,
    # also when that model has no fallible worlds.
    for text in ("p", "~~p -> p", "false"):
        assert decide(logic, parse_formula(text)).model.kind == logic


@pytest.mark.parametrize("logic", ["cs4", "ws4"])
@pytest.mark.parametrize("source, condition", [("p -> []p", "mod-not-preorder"),
                                               ("<>p", "not-confluent")])
def test_countermodel_is_checked_against_its_class(logic, source, condition,
                                                    monkeypatch):
    # A model map into an S4 class that drops the modal relation's
    # reflexive pairs: the model still falsifies the formula but is no
    # longer in the class, so the verdict must not leave `decide`.
    original = solver.ck_model_to_cs4
    made = []

    def irreflexive(m):
        model = original(m)
        rows = tuple(row & ~(1 << w) for w, row in enumerate(model.mod.rows))
        made.append(dataclasses.replace(model, mod=Relation(model.worlds, rows)))
        return made[-1]

    monkeypatch.setattr(solver, "ck_model_to_cs4", irreflexive)
    with pytest.raises(CertificationError, match=f"{logic} countermodel violates"):
        decide(logic, parse_formula(source))
    assert condition in {v.condition for v in validate(made[0], logic)}


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
