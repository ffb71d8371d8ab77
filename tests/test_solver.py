import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from ckstar import blocks, oracle, relmodel, semantics, solver, syntax, translate
from ckstar.relmodel import BiModel, PdlModel, Relation, bits_of, validate
from ckstar.semantics import pdl_extension, pdl_satisfies, satisfies
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
    And,
    Atom,
    BoxP,
    Comp,
    FragmentError,
    FragmentTag,
    Neg,
    Or,
    PAtom,
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
    chain_decide,
    logic_corpus,
    random_lstar,
    random_pdl,
    random_program,
    stack_headroom,
)


def closure_set(f):
    return set(fl_closure(f).formulas)


def bare_atoms(node, starred=False) -> set:
    """Program atoms of a formula or program that occur other than as the
    body of a star, found by plain recursion."""
    if isinstance(node, PAtom):
        return set() if starred else {node.name}
    if isinstance(node, BoxP):
        return bare_atoms(node.prog) | bare_atoms(node.body)
    if isinstance(node, Star):
        return bare_atoms(node.body, starred=True)
    kids = [getattr(node, k) for k in ("body", "left", "right") if hasattr(node, k)]
    return set().union(*(bare_atoms(k) for k in kids))


def independent_closure(f):
    """Fixpoint of the closure rules, computed by naive re-scanning: a
    starred box over a program atom that occurs in f only starred steps to
    the atomic box over its body, every other one to its unfolding."""
    bare = bare_atoms(f)
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
                elif isinstance(p.body, PAtom) and p.body.name not in bare:
                    new = [g.body, BoxP(p.body, g.body)]
                elif isinstance(p, Star):
                    new = [g.body, BoxP(p.body, g)]
            for h in new:
                if h not in out:
                    out.add(h)
                    changed = True
    return out


def test_fl_closure_goldens():
    assert closure_set(parse_pdl("p")) == {parse_pdl("p")}
    # a occurs only starred: [a*]p steps to the atomic box [a]p.
    f = parse_pdl("[a*]p")
    assert closure_set(f) == {f, parse_pdl("p"), parse_pdl("[a]p")}
    # a also occurs bare: [a*]p unfolds to [a][a*]p as a star eventuality.
    f = parse_pdl("[a*]p & [a]q")
    assert closure_set(f) == {f, parse_pdl("[a*]p"), parse_pdl("[a]q"), parse_pdl("p"),
                              parse_pdl("q"), parse_pdl("[a][a*]p")}
    g = parse_pdl("[i*;m]q")
    assert closure_set(g) == {
        g,
        parse_pdl("[i*][m]q"),
        parse_pdl("[m]q"),
        parse_pdl("q"),
        parse_pdl("[i][m]q"),
    }
    # m** is a star over m*, so only its inner star steps to [m].
    h = parse_pdl("[m**]q")
    assert closure_set(h) == {h, parse_pdl("q"), parse_pdl("[m*][m**]q"),
                              parse_pdl("[m][m**]q")}


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
    by_size = {1: [Atom(a) for a in atoms]}
    for s in range(2, sizes + 1):
        layer = []
        for f in by_size.get(s - 1, []):
            layer.append(Neg(f))
        for prog in progs:
            cost = 1 + formula_size(prog)
            for f in by_size.get(s - cost, []):
                layer.append(BoxP(prog, f))
        for i in range(1, s - 1):
            for l in by_size.get(i, []):
                for r in by_size.get(s - 1 - i, []):
                    layer.append(And(l, r))
                    layer.append(Or(l, r))
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
    every letter interpreted, and q true only at the path's end."""
    n = len(word) + 1
    return PdlModel(n, {x: Relation.from_pairs(
        n, [(k, k + 1) for k, y in enumerate(word) if y == x]) for x in letters},
        {"q": 1 << len(word)})


def test_a_false_preorder_box_off_every_walk_is_met_by_its_failing_body():
    # No star eventuality's automaton walks through [a*]p, so !p here meets
    # ![a*]p as a connective would and plants no a-obligation.  The
    # eventuality ![m**]q walks through the preorder box [m*][m**]q, which
    # must keep its obligation even where its body already fails (see the
    # test above), so it branches under a decision marker.
    engine = solver._Tableau(parse_pdl("![a*]p & !p"))
    engine.build()
    assert engine.order == [engine.root]
    assert engine.info[engine.root] == ("sat", [], [], [], 0, 0)
    engine = solver._Tableau(parse_pdl("![m**]q & !!q"))
    walked = engine.closure.index[parse_pdl("[m*][m**]q")]
    assert engine.plan[walked << 1][0] == solver._BRANCH_STAR


def test_star_automaton_accepts_exactly_the_star_language():
    # The automaton read off the node table, run forward on every short
    # word, against <star>q at the start of that word's path, where q holds
    # only at the end: the path's word is in the star's language.
    rng = random.Random(71)
    p, not_q = Atom("p"), Neg(Atom("q"))
    for _ in range(200):
        star = Star(random_program(rng, 3))
        reaches_q = Neg(BoxP(star, not_q))
        engine = solver._Tableau(Neg(BoxP(star, p)))
        accepting, states, moves = engine._automaton(
            engine.closure.index[BoxP(star, p)])
        letters = engine.alphabet
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                current = {0}  # the start state
                for x in word:
                    current = {r2 for y, r1, r2 in moves
                               if y == x and r1 in current}
                in_language = pdl_extension(path_model(word, letters), reaches_q) & 1
                assert (not current.isdisjoint(accepting)) == bool(in_language), \
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


def random_mixed_program(rng: random.Random, depth: int):
    """A random program in which a occurs only as a* and m both bare and
    starred."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([Star(PAtom("a")), PAtom("m"), Star(PAtom("m"))])
    if rng.random() < 0.5:
        return Comp(random_mixed_program(rng, depth - 1),
                    random_mixed_program(rng, depth - 1))
    return Star(random_mixed_program(rng, depth - 1))


def random_mixed_pdl(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.15:
        return Atom(rng.choice("pq"))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_mixed_pdl(rng, depth - 1))
    if kind in (1, 2):
        cls = And if kind == 1 else Or
        return cls(random_mixed_pdl(rng, depth - 1), random_mixed_pdl(rng, depth - 1))
    return BoxP(random_mixed_program(rng, 1), random_mixed_pdl(rng, depth - 1))


def random_mixed_goal(rng: random.Random, depth: int):
    """![P]A & [Q]B & C: a diamond that a box may keep from being met,
    over the programs of `random_mixed_program`."""
    return And(Neg(BoxP(random_mixed_program(rng, 2), random_mixed_pdl(rng, depth))),
               And(BoxP(random_mixed_program(rng, 2), random_mixed_pdl(rng, depth)),
                   random_mixed_pdl(rng, depth)))


def signed_code_walk(closure) -> dict:
    """Each signed code (index << 1 | sign) that the goal reaches from its
    true code 1, read off the node table, to the codes it reaches in one
    step (Smullyan's signed formulas): a negation flips the sign and every
    other step keeps it.  A connective, a starred box and a false preorder
    box reach both arguments, left first; a true preorder box only its
    body; a composition box its unfolding; an atomic box its body."""
    kinds, args = closure.kind, closure.args
    walk: dict = {}
    work = [1]
    while work:
        c = work.pop()
        if c in walk:
            continue
        kind, a, sign = kinds[c >> 1], args[c >> 1], c & 1
        if kind == solver._ATOM:
            members = ()
        elif kind == solver._NEG:
            members, sign = (a,), 1 - sign
        elif kind == solver._BOX_C:
            members = (a,)
        elif kind == solver._BOX_A:
            members = (a[1],)
        elif kind == solver._BOX_P and sign:
            members = (a[0],)
        else:
            members = a
        walk[c] = tuple(m << 1 | sign for m in members)
        work.extend(walk[c])
    return walk


def recorded_engines(monkeypatch) -> list:
    """Every `_Tableau` made from a goal from now on, in order, as
    `pdl_satisfiable` makes them.  A twin is a copy of its main graph, so
    it is not among them, although its `build` runs too."""
    seen = []
    original = solver._Tableau.__init__

    def recorded(engine, goal):
        original(engine, goal)
        seen.append(engine)

    monkeypatch.setattr(solver._Tableau, "__init__", recorded)
    return seen


def twin_refuted(engine) -> bool:
    """Whether the twin ran and found the goal unsatisfiable."""
    return engine.twin is not None and engine.twin.refuted()


def test_engines_agree_when_one_atom_occurs_only_starred(monkeypatch):
    # a occurs only as a*, so each [a*]B is one preorder box; m occurs
    # bare as well, so each [m*]B stays a star eventuality.  The
    # exhaustive engine unfolds every star in its own closure.  Some of
    # the unsatisfiable goals are decided by the twin, whose false
    # preorder boxes only plant their obligations.
    engines = recorded_engines(monkeypatch)
    rng = random.Random(37)
    compared = sat = by_twin = 0
    while compared < 150:
        f = random_mixed_goal(rng, 2)
        kinds = set(fl_closure(f).kind)
        if "a" in bare_atoms(f) or "m" not in bare_atoms(f) \
                or not {solver._BOX_P, solver._BOX_S} <= kinds:
            continue
        try:
            got_exh = pdl_satisfiable_exhaustive(f, max_closure=18)
        except ValueError:
            continue
        got_tab = pdl_satisfiable(f)
        assert (got_tab is None) == (got_exh is None), render(f)
        compared += 1
        sat += got_tab is not None
        by_twin += twin_refuted(engines[-1])
    assert 20 < sat < 130, sat
    assert by_twin > 2, by_twin


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
    """The ids the last pass visited: the subgraph it settled.  A pass
    skips the other demands of a saturated state with a dead one, so these
    can be fewer than the ids its successors reach."""
    return [u for u, l in enumerate(engine.low) if l != solver._UNSEEN]


def assert_settled_as_reference(engine, present, marked=None) -> int:
    """The alive bits of the states present, and each alive one's mark at
    every starred member's start bit, equal the reference elimination's on
    the subgraph they span; returns the number of marks compared.  Only
    the marks of the states in marked are compared, if it is given."""
    reference = reference_alive(engine, present)
    goal = render(engine.closure.formulas[0])
    assert [engine.alive[u] for u in present] == [reference[u] for u in present], goal
    rev_steps, saturated, _ = alive_steps(engine, reference)
    pairs = 0
    for m, bit in engine.start_bit.items():
        expected = fulfilled(engine, m, rev_steps, saturated)
        for u in present if marked is None else marked:
            if reference[u]:
                assert bool(engine.marks[u] & bit) == bool(expected[u]), (goal, u, m)
                pairs += 1
    return pairs


def check_each_pass(monkeypatch, check) -> None:
    """From now on, after each pass (`_search`), call check(engine,
    settled) with the states that `_settle` settled in the pass: every
    state the pass reached, but for the decompositions that the root-chain
    exit marked alive.  A pass stopped at the state limit leaves its bits
    stale and is not checked."""
    settled = []
    settle, search = solver._Tableau._settle, solver._Tableau._search

    def recorded(engine, part, floor):
        settle(engine, part, floor)
        settled.extend(part)

    def checked(engine):
        settled.clear()
        stopped = search(engine)
        if not stopped:
            check(engine, list(settled))
        return stopped

    monkeypatch.setattr(solver._Tableau, "_settle", recorded)
    monkeypatch.setattr(solver._Tableau, "_search", checked)


def assert_pass_as_reference(engine, settled) -> int:
    """The pass that just ended settled every state it reached as the
    reference does, and the ones it did not settle are alive
    decompositions; returns the number of marks compared."""
    present = reached(engine)
    chain = set(present) - set(settled)
    assert all(engine.info[u][0] == "or" and engine.alive[u] for u in chain)
    return assert_settled_as_reference(engine, present, settled)


def lift_state_limit(monkeypatch) -> None:
    """From now on, every pass searches with no state limit, so passes 2
    to `PASSES` after a live twin search as far as they need."""
    search = solver._Tableau._search

    def unlimited(engine):
        engine.limit = float("inf")
        return search(engine)

    monkeypatch.setattr(solver._Tableau, "_search", unlimited)


def test_settlement_matches_global_elimination(monkeypatch):
    # A pass ends when the root's component settles, from the bottom of
    # Tarjan's stack, or when the root-chain exit finds the root alive.
    # Every state reachable along the successors the pass followed is then
    # settled for that subgraph by this pass, which searched it from the
    # root again: its alive bit must be the global fixpoint's on the
    # subgraph, and each alive state's mark at a starred member's start
    # bit must be the reference's own fulfilment, since extraction reads
    # its witness paths off the marks.  Once after every pass, then with
    # every alternative released from the start and the root-chain exit
    # off, where one pass settles the whole graph.  The twin's passes are
    # compared the same way, and its verdict with that of the main graph
    # searched whole.
    passes = []
    compared_pairs = twin_pairs = 0
    mains = recorded_engines(monkeypatch)

    def compared(engine, settled):
        nonlocal compared_pairs, twin_pairs
        pairs = assert_pass_as_reference(engine, settled)
        compared_pairs += pairs
        if engine not in mains:
            passes.append("twin")
            twin_pairs += pairs
        else:
            passes.append(engine.passes)

    check_each_pass(monkeypatch, compared)
    # ![P*]A & [Q*]B & C: an eventuality that a box may keep from being
    # fulfilled, over random programs and formulas: enough of them that
    # passes 2 and 3 run often, although the sibling of a clashing
    # alternative is followed in the pass that finds the clash.  Then goals
    # in which a occurs only as a*, so that the twin runs.  Then two
    # eventualities side by side: only a starred box that the goal reaches
    # false gets a start bit, and so marks to compare.
    rng = random.Random(29)
    pieces = dict(atoms=("p", "q"), prog_atoms=("a", "m"))

    def star_box():
        return BoxP(Star(random_program(rng, 2, ("a", "m"))), random_pdl(rng, 3, **pieces))

    formulas = [And(Neg(star_box()), And(star_box(), random_pdl(rng, 3, **pieces)))
                for _ in range(240)]
    formulas += [random_mixed_goal(rng, 3) for _ in range(240)]
    formulas += [And(Neg(star_box()), And(Neg(star_box()), random_pdl(rng, 3, **pieces)))
                 for _ in range(240)]
    for f in formulas:
        pdl_satisfiable(f)
    monkeypatch.undo()
    monkeypatch.setattr(solver, "PASSES", 0)
    monkeypatch.setattr(solver._Tableau, "_root_chain", lambda *_: False)
    deleted = pairs = demands = twins = 0
    for f in formulas:
        engine = solver._Tableau(f)
        alive = engine.build().alive
        if engine.root is None:  # the goal clashes, so no pass runs
            assert engine.passes == 0 and not engine.order
            continue
        assert engine.passes == 1 and reached(engine) == sorted(engine.order)
        assert alive == reference_alive(engine)
        deleted += bool(engine.rounds)
        pairs += assert_settled_as_reference(engine, engine.order)
        if engine.preorders:
            twin = engine._twin()
            twin_alive = twin.root is not None and twin.alive[twin.root]
            assert twin_alive == alive[engine.root], render(f)
            if twin.root is not None:
                assert reached(twin) == sorted(twin.order)
                assert twin.alive == reference_alive(twin)
                pairs += assert_settled_as_reference(twin, twin.order)
            twins += 1
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
    assert passes.count("twin") > 10 and twin_pairs > 200, passes
    assert compared_pairs > 5000 and deleted > 20 and pairs > 10000
    assert demands > 1000 and twins > 50


def test_the_root_chain_exit_is_exact(monkeypatch):
    # A pass ends as soon as an alive component settles with only
    # decompositions open below it, each a parent of the next: the root is
    # then alive.  The answers and the extracted models must be those of
    # the same search with the exit off, and every state each pass settled
    # must be the reference's.  The last goal, searched whole, has a
    # saturated state whose demand decomposes back into the decomposition
    # above it; that decomposition's other alternative settles alive while
    # the first is still open, and no exit may fire there.  Both runs lift
    # the main graph's state limit after a live twin: the exit saves states,
    # so the run without it could reach the limit and answer from the twin
    # where the run with it does not.
    from ckstar.oracle import random_formula
    exits = pairs = 0

    def compared(engine, settled):
        nonlocal exits, pairs
        pairs += assert_pass_as_reference(engine, settled)
        exits += len(reached(engine)) > len(settled)

    rng = random.Random(41)
    goals = [(None, random_mixed_goal(rng, 3), 3) for _ in range(120)]
    goals += [("ck_star", random_formula(s, d, ("p", "q", "r")), 3)
              for d, n in ((5, 80), (6, 40)) for s in range(n)]
    goals.append((None, parse_pdl("[m*]((!r | s) & (![m]r | t))"), 0))
    models = []
    extract = solver._Tableau.extract

    def extracted(engine):
        models.append(extract(engine))
        return models[-1]

    def answers() -> list:
        monkeypatch.setattr(solver._Tableau, "extract", extracted)
        lift_state_limit(monkeypatch)
        out = []
        for logic, f, cap in goals:
            monkeypatch.setattr(solver, "PASSES", cap)
            out.append(pdl_satisfiable(f) if logic is None
                       else json.dumps(chain_decide(logic, f).to_obj()))
        return out

    check_each_pass(monkeypatch, compared)
    with_exit = answers()
    with_exit_models = models[:]
    monkeypatch.undo()
    models.clear()
    monkeypatch.setattr(solver._Tableau, "_root_chain", lambda *_: False)
    assert answers() == with_exit
    assert models == with_exit_models
    assert exits > 150 and pairs > 5000, (exits, pairs)


def test_search_stops_once_the_root_survives(monkeypatch):
    f = parse_pdl("[m*;m*]([(a;a)*][m;m]p | ![m**]q)")
    stats = {}
    model, world = pdl_satisfiable(f, stats=stats)
    assert pdl_satisfies(model, world, f)
    # A pass cap of 0 releases every alternative from the start, so with
    # the root-chain exit off the one pass searches the whole graph.
    monkeypatch.setattr(solver, "PASSES", 0)
    monkeypatch.setattr(solver._Tableau, "_root_chain", lambda *_: False)
    full = {}
    assert pdl_satisfiable(f, stats=full) is not None
    assert stats["nodes"] < full["nodes"] and full["passes"] == 1


def recorded_stats(monkeypatch) -> list:
    """The `stats` of every `pdl_satisfiable` call `decide` makes from now
    on, in call order.  Its other keywords pass through."""
    seen = []
    original = solver.pdl_satisfiable

    def recorded(g, stats=None, **kwargs):
        stats = {} if stats is None else stats
        seen.append(stats)
        return original(g, stats=stats, **kwargs)

    monkeypatch.setattr(solver, "pdl_satisfiable", recorded)
    return seen


def test_depth6_seed17_decides_in_two_passes_over_500_states(monkeypatch):
    # Its whole graph has hundreds of thousands of states; the first pass
    # finds a countermodel among the first 44.  `decide` answers it from
    # its small-world scan, so the chain runs alone.
    from ckstar.oracle import random_formula
    seen = recorded_stats(monkeypatch)
    f = random_formula(17, 6, ("p", "q", "r"))
    v = chain_decide("ck_star", f)
    assert not v.valid
    assert not satisfies(v.model, v.world, f)
    assert seen[0]["passes"] <= 2 and seen[0]["nodes"] <= 500


@pytest.mark.parametrize("n, cap", [(21, 500), (41, 2000), (99, 8000)])
def test_odd_negation_tower_decides_within_a_state_cap(n, cap, monkeypatch):
    # Before the search ran in passes, n = 27 expanded 65,536 states and
    # n = 41 passed 1.5 GB.  Each pass follows the first alternative of
    # each decomposition, and with i* read as a preorder box the first
    # pass finds a two-world countermodel.
    seen = recorded_stats(monkeypatch)
    f = parse_formula("~" * n + "p")
    v = chain_decide("ck_star", f)
    assert not v.valid
    assert validate(v.model, "ck") == [] and not satisfies(v.model, v.world, f)
    assert seen[0]["nodes"] <= cap


def test_cs4_four_diamond_tower_decides_within_a_state_cap(monkeypatch):
    # <> is <*> under kappa, and m then occurs only starred: each [m*]B is
    # one preorder box.  As star eventualities, n = 12 took 340,264 states
    # and n = 20 ran out of memory.
    seen = recorded_stats(monkeypatch)
    n = 20
    assert decide("cs4", parse_formula("<>" * (n + 1) + "p -> " + "<>" * n + "p")).valid
    assert seen[0]["nodes"] <= 1000


@pytest.mark.parametrize("source, cap", [
    ("<*>" * 61 + "[]p -> " + "<*>" * 60 + "[]p", 400),
    ("p->" * 100 + "p", 300),
], ids=["star_tower_60", "implications_100"])
def test_valid_towers_decide_within_a_state_cap(source, cap, monkeypatch):
    # Pass 1 leaves the root dead and the twin refutes the goal in one
    # pass.  The <*> tower at n = 60 took 257 states and the implications
    # 201, where a last pass over the main graph doubled the tower's states
    # a level and took 10,100 for the implications.
    seen = recorded_stats(monkeypatch)
    assert decide("ck_star", parse_formula(source)).valid
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
# states expanded over all passes, the twin's included), `passes`, `rounds`
# (the live count of each settlement step that deleted states for an
# unfulfilled eventuality, over all passes in search order, then the
# twin's) and `closure`.  Every row was
# re-recorded when the search in passes replaced the checkpoints, and
# again when states were closed as they are discovered: closing a state
# and a clash take no graph node, and the sibling of a clashing
# alternative is followed in the same pass; and again when a starred box
# over a program atom that occurs only starred became one preorder box
# with no star eventuality.  The Valid rows with a preorder box were
# re-recorded when the twin (plan (a): a false preorder box only plants its
# obligation) came to decide the last pass, and again when it came to
# decide right after pass 1, in passes of its own, and a pass came to end
# once the root's chain of decompositions is alive; their passes column
# counts pass 1 and the twin's passes.  A change to the engine's
# internals that keeps its decomposition graph, expansion order and pass
# rules keeps them exactly.  None as logic means `pdl_satisfiable` on the
# PDL formula itself.  New rows go at the end: pytest names a row by its
# index among the rows, so an insertion renames the ones after it.
GRAPH_PINS = [
    (None, "![a*]p & [a](p | [a*]!p)", 2, 1, [], 10),
    # `oracle.random_formula` (seed, depth) over p, q, r.
    ("ck_star", (0, 5), 9, 1, [], 69),
    ("ck_star", (17, 6), 44, 1, [], 94),
    # One `theorems` benchmark instance each of K and induction (ck_star)
    # and of 4 (cs4).
    ("ck_star", "[]((((false | p) | (p -> p))) -> (<>[]p)) -> "
                "([](((false | p) | (p -> p))) -> [](<>[]p))", 8, 2, [], 58),
    ("ck_star", "[*]((((false | p) | (p -> p))) -> [](((false | p) | (p -> p)))) -> "
                "((((false | p) | (p -> p))) -> [*](((false | p) | (p -> p))))",
     57, 4, [4, 5, 8, 14], 50),
    ("cs4", "[]((<>q & (q | p))) -> [][]((<>q & (q | p)))", 39, 4, [4, 5, 11, 15], 29),
    # Deep closures over i*: an odd tower of ~ (Invalid, many branch
    # states) and right-nested implications (Valid; i occurs only starred,
    # so no state has a star eventuality and no step deletes one).  The
    # implications' pass 1 expands 21 and 101 states, the twin 20 and 100.
    ("ck_star", "~" * 21 + "p", 29, 1, [], 103),
    ("ck_star", "p->" * 20 + "p", 41, 2, [], 65),
    ("ck_star", "p->" * 100 + "p", 201, 2, [], 305),
    # A goal that clashes as it is closed: no state, no pass.
    (None, "p & !p", 0, 0, [], 3),
    # The heaviest `theorems` schema, K under cs4: 1839 states before a
    # pass stopped following a saturated state's demands at a dead one.
    ("cs4", "[](([]<>false) -> ((<>q | <>q))) -> "
            "([]([]<>false) -> []((<>q | <>q)))", 112, 4, [7, 10, 16, 18, 18], 64),
    # The <*> tower: m also occurs bare, so every [m*] stays a star
    # eventuality; 15,094 states before that cut, 3,055 before the twin
    # decided the last pass, and 232 before it decided right after pass 1
    # (32 states in pass 1, 17 in the twin).
    ("ck_star", "<*>" * 9 + "[]p -> " + "<*>" * 8 + "[]p", 49, 2, [10, 2], 66),
    # The same tower at n = 30, out of reach of a whole-graph last pass:
    # 98 states in pass 1 and 39 in the twin; pass 1 grows by 3 states a
    # level and the twin by 1.
    ("ck_star", "<*>" * 31 + "[]p -> " + "<*>" * 30 + "[]p", 137, 2, [32, 2], 198),
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
        chain_decide(logic, f)
        stats, = seen
    assert (stats["nodes"], stats["passes"], stats["rounds"], stats["closure"]) == \
        (nodes, passes, rounds, closure)


# Per benchmark pool and decider: the first 16 hex digits of the sha256
# over its answers' `json.dumps(to_obj, sort_keys=True)` lines, the world
# total of its countermodels and the states expanded (main graphs and
# twins).  The first rows pin the reduction chain alone (`chain_decide`),
# the last ones `decide`, whose small-world scan answers first and leaves
# the chain the rest, with the twin built first where both scans ran.  A
# change that alters countermodels on purpose re-records its row and says
# so; one that only speeds the engine up keeps them.  CI runs this test
# under two hash seeds too, so no answer may depend on a set's hash order.
POOL_PINS = [
    ("corpus", chain_decide, "65caf1fc0947ea45", 8590, 31613),
    ("hard", chain_decide, "122239f8e88c7fa5", 447, 3405),
    ("theorems", chain_decide, "0348e151ad90aeda", 0, 15344),
    ("corpus", decide, "a72d7a6cd47ecc83", 5575, 2579),
    ("hard", decide, "4dd3cb5112326186", 304, 893),
    ("theorems", decide, "0348e151ad90aeda", 0, 11044),
]

# The `theorems` pool's valid schemas per logic, with the fragment its
# instances are drawn from; A and B stand for two random formulas.
THEOREM_SCHEMAS = (
    ("ck_star", FragmentTag.LSTAR, (
        "[](A -> B) -> ([]A -> []B)",
        "[](A -> B) -> (<>A -> <>B)",
        "[*]A -> A & [][*]A",
        "[*]A -> [*][*]A",
        "<*><*>A -> <*>A",
        "[*](A -> []A) -> (A -> [*]A)")),
    ("cs4", FragmentTag.L, (
        "[](A -> B) -> ([]A -> []B)",
        "[]A -> [][]A",
        "<><>A -> <>A")),
)


def benchmark_pool(name: str) -> list:
    """The `corpus`, `hard` or `theorems` benchmark pool as (logic, formula)
    pairs, in the order of `bench/gen.py`'s `workload_groups`."""
    from ckstar.oracle import enumerate_formulas, random_formula
    if name == "hard":
        return [("ck_star", random_formula(s, d, ("p", "q", "r")))
                for d, n in ((5, 200), (6, 60)) for s in range(n)]
    if name == "theorems":
        pool = []
        for logic, tag, schemas in THEOREM_SCHEMAS:
            for schema in schemas:
                for k in range(60):
                    a, b = (render(random_formula(s, 2, ("p", "q"), tag))
                            for s in (2 * k, 2 * k + 1))
                    text = schema.replace("A", f"({a})").replace("B", f"({b})")
                    pool.append((logic, parse_formula(text)))
        return pool
    return ([("ck_star", f) for f in enumerate_formulas(5, ("p", "q"))]
            + [("cs4", f) for f in enumerate_formulas(5, ("p", "q"), FragmentTag.L)])


@pytest.mark.parametrize("pool, decider, digest, worlds, states", POOL_PINS,
                         ids=[row[0] if row[1] is chain_decide else f"{row[0]}-decide"
                              for row in POOL_PINS])
def test_benchmark_pool_answers_are_pinned(pool, decider, digest, worlds, states,
                                           monkeypatch):
    seen = recorded_stats(monkeypatch)
    lines, total = hashlib.sha256(), 0
    for logic, f in benchmark_pool(pool):
        v = decider(logic, f)
        lines.update(json.dumps(v.to_obj(), sort_keys=True).encode() + b"\n")
        total += 0 if v.valid else v.model.worlds
    assert (lines.hexdigest()[:16], total, sum(s["nodes"] for s in seen)) == \
        (digest, worlds, states)


# `decide` answers these many inputs of each pool from its small-world scan.
SMALL_WORLD_ANSWERS = {"corpus": 5286, "hard": 239, "theorems": 0}


def recorded_scans(monkeypatch) -> list:
    """What every `blocks.scan` call `decide` makes from now on returns, in
    call order: the first (model, world) or None, and whether both world
    counts ran."""
    seen = []
    original = solver.scan

    def recorded(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(solver, "scan", recorded)
    return seen


@pytest.mark.parametrize("pool", SMALL_WORLD_ANSWERS)
def test_the_one_world_scan_keeps_every_verdict(pool, monkeypatch):
    # The scan answers only with a certified countermodel of the row's
    # class of at most two worlds, never larger than the chain's; on every
    # other input `decide` gives the chain's answer.
    scans = recorded_scans(monkeypatch)
    scanned = 0
    for logic, f in benchmark_pool(pool):
        v, chain = decide(logic, f), chain_decide(logic, f)
        (found, _), = scans
        scans.clear()
        if found is None:
            assert v == chain, render(f)
            continue
        scanned += 1
        assert not chain.valid, render(f)
        assert (v.model, v.world) == found and v.model.kind == solver.LOGIC_TABLE[logic].kind
        assert v.model.worlds <= min(2, chain.model.worlds)
    assert scanned == SMALL_WORLD_ANSWERS[pool]


def assert_scan_answers_as_the_oracle(logic, formulas, monkeypatch) -> int:
    """Where `decide`'s scan ran both world counts, its answer is the
    model the bounded oracle meets first at two worlds, or, where the
    oracle finds none, the chain's.  The number of inputs covered."""
    scans = recorded_scans(monkeypatch)
    covered = 0
    for f in formulas:
        v = decide(logic, f)
        (found, ran_both), = scans
        scans.clear()
        if not ran_both:
            continue
        covered += 1
        atoms = solver.check_input(logic, f)[1]
        bounded = oracle.brute_force_decide(logic, f, oracle.EnumSpec(2, atoms))
        if bounded.valid_up_to_bound:
            assert found is None and v == chain_decide(logic, f), render(f)
        else:
            assert (v.model, v.world) == found == (bounded.model, bounded.world), render(f)
    return covered


def test_the_scan_answers_with_the_oracles_first_two_world_model(monkeypatch):
    # Every `corpus` input fits both world counts.
    for logic, pairs in itertools.groupby(benchmark_pool("corpus"), key=lambda pair: pair[0]):
        fs = [f for _, f in pairs]
        assert assert_scan_answers_as_the_oracle(logic, fs, monkeypatch) == len(fs)


@pytest.mark.parametrize("logic", ["k_star", "pdl"])
def test_the_classical_scan_answers_with_the_oracles_model(logic, monkeypatch):
    # No benchmark pool is classical.  Every input fits both world counts:
    # two worlds over a and two atoms are 2^8 models, and over i, m and p
    # 2^10.
    fs = logic_corpus(logic) + [oracle.random_formula(s, 4, ("p", "q"), FragmentTag.LK_STAR)
                                for s in range(200)]
    assert assert_scan_answers_as_the_oracle(logic, fs, monkeypatch) == len(fs)


@pytest.mark.parametrize("logic, source, model", [
    # [a]p and []p -> p hold where p does, and the scan must not say
    # otherwise; nor may it answer with a model outside the row's class.
    ("k_star", "[a]p", PdlModel(1, {"a": Relation(1, (1,))}, {"p": 1})),
    ("ck_star", "[]p -> p", BiModel(1, Relation(1, (1,)), Relation(1, (0,)),
                                    {"p": 1}, 0, "ck")),
    ("cs4", "[]p -> p", BiModel(1, Relation(1, (1,)), Relation(1, (0,)),
                                {"p": 0}, 0, "cs4")),
    ("ck_star", "[]p -> p", BiModel(1, Relation(1, (1,)), Relation(1, (0,)),
                                    {"p": 0}, 0, "wk")),
], ids=["satisfied-pdl", "satisfied-ck", "not-in-class", "mislabelled"])
def test_a_one_world_answer_is_certified(logic, source, model, monkeypatch):
    monkeypatch.setattr(solver, "scan", lambda *_: ((model, 0), True))
    f = parse_pdl(source) if logic == "k_star" else parse_formula(source)
    with pytest.raises(CertificationError):
        decide(logic, f)


def scanned_worlds(logic, f, monkeypatch) -> tuple:
    """`decide`'s answer to f and the world counts its scan ran at, each as
    the block cache is asked for that world count's blocks."""
    worlds = []
    original = blocks._BLOCKS.blocks
    monkeypatch.setattr(blocks._BLOCKS, "blocks",
                        lambda key, n, stream: worlds.append(n) or original(key, n, stream))
    return decide(logic, f), worlds


@pytest.mark.parametrize("logic, atoms, scanned", [
    ("ck_star", 14, True), ("ck_star", 15, False), ("wk_star", 15, False),
    ("pdl", 15, True), ("pdl", 16, False)])
def test_the_scan_runs_only_on_a_one_world_class_of_one_block(logic, atoms, scanned,
                                                               monkeypatch):
    # A constructive class over k atoms has at most 2^(k+2) one-world
    # models: 2^16 over 14 atoms fit one block of 2^16, 2^17 over 15 do not
    # (`ck` has 2^(k+1) + 1, `wk` 2^(k+1)).  A classical class counts its
    # program atoms too, here a alone, so 2^16 fit over 15 atoms.  Past the
    # block, the chain decides.
    names = [f"p{i}" for i in range(atoms)]
    if logic == "pdl":
        f = parse_pdl("<a>" + " | ".join(names))
    else:
        f = parse_formula(" | ".join(names))
    v, worlds = scanned_worlds(logic, f, monkeypatch)
    assert not v.valid and worlds == [1] * scanned
    if not scanned:
        assert v == chain_decide(logic, f)


@pytest.mark.parametrize("logic, atoms, worlds", [
    ("ck_star", 4, [1, 2]), ("ck_star", 5, [1]), ("cs4", 4, [1, 2]),
    ("ck_star", 14, [1]), ("pdl", 6, [1, 2]), ("pdl", 7, [1])],
    ids=["ck_star-4", "ck_star-5", "cs4-4", "ck_star-14", "pdl-6", "pdl-7"])
def test_the_scan_runs_two_worlds_only_on_a_class_of_one_block(logic, atoms, worlds,
                                                                monkeypatch):
    # The goal holds in every one-world model and fails in a two-world one.
    # Two worlds have 4 preorders, so a constructive class over k atoms
    # has at most 4 * 2^4 * 2^(2(k+1)) two-world models: 2^16 over 4 atoms,
    # 2^18 over 5.  A classical one over a and k atoms has 2^(4 + 2k): 2^16
    # over 6 atoms, 2^18 over 7.  Past the block, the chain decides.
    rest = "".join(f" | p{i}" for i in range(1, atoms))
    if logic == "pdl":
        f = parse_pdl("([a]p0 -> [a][a]p0)" + rest)
    else:
        f = parse_formula("(p0 | ~p0)" + rest)
    v, scanned = scanned_worlds(logic, f, monkeypatch)
    assert not v.valid and scanned == worlds
    if worlds == [1, 2]:
        assert v.model.worlds == 2
    else:
        assert v == chain_decide(logic, f)


def test_a_covered_valid_input_expands_no_main_state(monkeypatch):
    # Both scans run on every `theorems` input and find nothing, so the
    # preorder twin is built before pass 1 and refutes the goal alone.
    engines = recorded_engines(monkeypatch)
    for logic, f in benchmark_pool("theorems"):
        assert decide(logic, f).valid
        engine, = engines
        assert twin_refuted(engine) and engine.order == [], render(f)
        engines.clear()


@pytest.mark.parametrize("source", [
    "[*](p0 -> []p0) -> (p0 -> [*]p0) | (p1 & p2 & p3 & p4)",
    "(p0 | ~p0) | (p1 & p2 & p3 & p4)",
], ids=["valid", "invalid"])
def test_an_uncovered_input_gets_the_chains_answer_and_states(source, monkeypatch):
    # Five atoms pass the two-world block, so `decide` searches as the
    # chain does: pass 1 first, and the twin only once pass 1 fails.
    f = parse_formula(source)
    seen = recorded_stats(monkeypatch)
    v, worlds = scanned_worlds("ck_star", f, monkeypatch)
    chain = chain_decide("ck_star", f)
    assert worlds == [1] and v == chain
    assert seen[0] == seen[1] and seen[0]["nodes"] > 0


# `hard` depth-5 seed 177 under ck_star: pass 2 ends with the root dead
# and the twin's root alive, so pass 3 searches the main graph whole, within
# its state limit, and extraction reads it.  The answer was recorded before
# the twin existed.
TWIN_ALIVE_PINS = [
    ("[*](([*](false | r) | <*><*>false) -> [][](r & q))",
     '{"verdict": "invalid", "world": 0, "model": {"kind": "ck", "worlds": 3, '
     '"pre": [[0, 0], [1, 1], [2, 2]], "mod": [[0, 1], [1, 2]], '
     '"val": {"q": [], "r": [0, 1, 2]}, "bot": []}}'),
]


@pytest.mark.parametrize("source, answer", TWIN_ALIVE_PINS)
def test_a_living_twin_leaves_the_countermodel_as_it_was(source, answer, monkeypatch):
    engines = recorded_engines(monkeypatch)
    v = chain_decide("ck_star", parse_formula(source))
    engine, = engines
    assert engine.twin is not None and not twin_refuted(engine)
    assert engine.passes == solver.PASSES and len(engine.order) < engine.limit
    assert json.dumps(v.to_obj()) == answer


def test_a_main_graph_past_its_state_limit_answers_from_the_twin(monkeypatch):
    # `hard` depth-6 seed 4 under ck_star: pass 1 expands 13 states and
    # leaves the root dead, and the twin lives on 19.  Passes 2 and 3 then
    # took the main graph to 2,135 states for a 6-world model; now they may
    # expand only 13 + 19 more, so the main graph stops at 45 and the model
    # is the twin's, certified at every layer on its way back.
    from ckstar.translate import omega, tau
    engines = recorded_engines(monkeypatch)
    f = parse_formula("[*]<*>[]((<>false -> []false) | (<*>false | [*]q))")
    wk_goal = omega(f)
    pdl_goal = Neg(tau(wk_goal))
    model, world = pdl_satisfiable(pdl_goal)
    engine, = engines
    twin = engine.twin
    assert twin is not None and twin.alive[twin.root] and len(twin.order) == 19
    assert len(engine.order) == engine.limit == 2 * 13 + 19
    assert engine.passes == 2
    assert pdl_satisfies(model, world, pdl_goal)
    wk_model, world = solver.LOGIC_TABLE["wk_star"].back(model, world, wk_goal)
    assert validate(wk_model, "wk") == [] and not satisfies(wk_model, world, wk_goal)
    ck_model, world = solver.LOGIC_TABLE["ck_star"].back(wk_model, world, f)
    assert validate(ck_model, "ck") == [] and not satisfies(ck_model, world, f)
    v = decide("ck_star", f)
    assert (v.model, v.world) == (ck_model, world)
    assert json.dumps(v.to_obj()) == (
        '{"verdict": "invalid", "world": 0, "model": {"kind": "ck", "worlds": 11, '
        '"pre": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2], [3, 3], [3, 4], '
        '[3, 5], [3, 6], [3, 7], [4, 4], [4, 7], [5, 5], [5, 6], [6, 6], [7, 7], '
        '[8, 8], [9, 6], [9, 9], [10, 10]], '
        '"mod": [[2, 3], [4, 8], [7, 8], [7, 9], [8, 10], [10, 10]], '
        '"val": {"q": [8, 10]}, "bot": [8, 10]}}')


def test_the_tables_cover_exactly_the_signed_codes_the_goal_reaches(monkeypatch):
    # Set-up builds plan entries exactly for the signed codes the goal reaches
    # from its true code (`signed_code_walk`), each over the walk's kids and a
    # literal only for an atom or an atomic box, and an automaton only for a
    # starred box reached false.  A twin's false preorder box adds only its
    # obligation, the walk's second kid.  Every code of every state that a
    # main graph or its twin holds must have its entry, and every eventuality
    # of a saturated state its start bit.  The alphabet is every program atom
    # of the goal, reached or not: in [a]p & ![m]q no true box carries m, and
    # in ![a*]p & [m]q none carries a, yet the extracted model must interpret
    # both letters.
    for text in ("[a]p & ![m]q", "![a*]p & [m]q"):
        goal = parse_pdl(text)
        assert solver._Tableau(goal).alphabet == program_atoms(goal) == ["a", "m"]
        model, world = pdl_satisfiable(goal)  # certified inside
        assert sorted(model.rho) == ["a", "m"] and pdl_satisfies(model, world, goal)
    from ckstar.oracle import random_formula
    engines = recorded_engines(monkeypatch)
    for d, n in ((5, 200), (6, 60)):  # the `hard` pool
        for s in range(n):
            chain_decide("ck_star", random_formula(s, d, ("p", "q", "r")))
    rng = random.Random(43)
    for _ in range(240):
        pdl_satisfiable(random_mixed_goal(rng, 3))
    twins = [e.twin for e in engines if e.twin is not None]
    states = eventualities = 0
    for g in engines + twins:
        walk = signed_code_walk(g.closure)
        codes = [c for c, entry in enumerate(g.plan) if entry is not None]
        assert sorted(walk) == codes
        for c in codes:
            mode, kids = g.plan[c]
            kind = g.kind[c >> 1]
            assert (mode == solver._LIT) == (kind in (solver._ATOM, solver._BOX_A))
            if g in twins and kind == solver._BOX_P and not c & 1:
                assert kids == walk[c][1:]
            else:
                assert kids == walk[c]
        assert sorted(g.start_bit) == sorted(
            c >> 1 for c in codes if not c & 1 and g.kind[c >> 1] == solver._BOX_S)
        assert g.alphabet == program_atoms(g.closure.formulas[0])
        for state in g.states:
            assert all(g.plan[c] for c in bits_of(state & (1 << g.marker_base) - 1))
            states += 1
        for i in g.order:
            if g.info[i][0] == "sat":
                assert all(m in g.start_bit for m in g.info[i][3])
                eventualities += len(g.info[i][3])
    assert len(twins) > 50 and states > 4000 and eventualities > 1000


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
    alive = engine.build().alive
    first, second = engine.info[engine.root][1]
    negated_box = engine.closure.index[parse_pdl("[a]!(p & !p)")] << 1
    assert engine.states[first] >> negated_box & 1
    assert engine.info[first] == ("or", ()) and not alive[first] and alive[second]
    model, world = pdl_satisfiable(f)
    assert model.val.get("q", 0) >> world & 1 and engine.passes == 2


def test_a_dead_demand_stops_the_search_of_its_saturated_state():
    # The saturated root demands [a]p & <a>!p over a, first, and r over m.
    # The first demand's state dies in a component below the root, so the
    # root is dead whatever the second holds: the pass never expands it.
    f = parse_pdl("<a>([a]p & <a>!p) & <m>r")
    engine = solver._Tableau(f)
    alive = engine.build().alive
    kind, (first, second), letters = engine.info[engine.root][:3]
    assert kind == "sat" and letters == ["a", "m"]
    assert not alive[first] and engine.low[first] == solver._SETTLED
    assert engine.info[second] is None and not alive[engine.root]
    assert pdl_satisfiable(f) is None and pdl_satisfiable_exhaustive(f) is None


def test_a_demand_that_clashes_as_it_is_built_kills_its_state():
    # [a*]p holds, so ![a*][a*]p is forced to ![a][a*]p, whose demand
    # carries [a*]p and ![a*]p at once: the state dies before the demand is
    # closed, and no state holds a member with both signs.
    f = parse_pdl("[a*]p & ![a*][a*]p")
    engine = solver._Tableau(f)
    alive = engine.build().alive
    assert engine.info[engine.root] == ("or", ()) and not alive[engine.root]
    assert engine.states == [engine.states[engine.root]]
    state = engine.states[engine.root]
    assert not any(state >> (c ^ 1) & 1 for c in bits_of(state))
    assert pdl_satisfiable(f) is None


@pytest.mark.parametrize("logic", ["ck_star", "wk_star", "ck_star_box", "cs4", "ws4"])
def test_long_implication_chain_is_valid(logic):
    # Each nesting level adds a box over i*, read as a preorder box with no
    # star eventuality; the whole graph has 10,100 states, and pass 1 and
    # the twin decide the Valid verdict over 201 of them under ck_star.
    assert decide(logic, parse_formula("p->" * 100 + "p")).valid


def test_incremental_closure_matches_closing_from_scratch(monkeypatch):
    # Each state is closed as it is discovered, only from the codes its
    # discovery added; closing it from every member must give the same
    # state or the same clash.  Conjunctions of four random formulas, with
    # the whole graph expanded (every alternative released and the
    # root-chain exit off), give states with many members and many clashes.
    monkeypatch.setattr(solver, "PASSES", 0)
    monkeypatch.setattr(solver._Tableau, "_root_chain", lambda *_: False)
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
            f = And(f, random_pdl(rng, 4, atoms=("p", "q"), prog_atoms=("a", "m")))
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
        decide("ck_star", parse_formula("p_bot"))
    with pytest.raises(ValueError):
        decide("nope", parse_formula("p"))


# `satisfies` calls per Invalid verdict of the reduction chain: one per
# model map back into a constructive class, on top of the single PDL
# certification.  `ck_star_box`'s map relabels `wk_star`'s model `ck`, so
# it is certified at both layers.
_MODEL_MAPS = {"pdl": 0, "k_star": 0, "wk_star": 1, "ck_star_box": 2,
               "ck_star": 2, "ws4": 2, "cs4": 3}


def _one_world_answer(logic, monkeypatch):
    """`decide`'s answer to [a]p or []p, which its one-world scan gives:
    the chain must not run."""
    monkeypatch.setattr(solver, "_decide", lambda *_: pytest.fail("the chain ran"))
    f = parse_pdl("[a]p") if logic in ("k_star", "pdl") else parse_formula("[]p")
    return decide(logic, f)


@pytest.mark.parametrize("logic", LOGICS)
def test_each_layer_is_certified_once(logic, monkeypatch):
    calls = {"pdl_satisfies": 0, "satisfies": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(solver, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solver, name, counted)
    f = parse_pdl("[a]p") if logic in ("k_star", "pdl") else parse_formula("[]p")
    v = chain_decide(logic, f)
    assert not v.valid
    assert calls == {"pdl_satisfies": 1, "satisfies": _MODEL_MAPS[logic]}
    # A one-world answer is certified once, by its row's own check.
    calls.update(dict.fromkeys(calls, 0))
    v = _one_world_answer(logic, monkeypatch)
    assert not v.valid and v.model.worlds == 1
    classical = solver.LOGIC_TABLE[logic].classical
    assert calls == {"pdl_satisfies": int(classical), "satisfies": int(not classical)}


@pytest.mark.parametrize("logic", LOGICS)
def test_each_layer_validates_its_model_once(logic, monkeypatch):
    # One `validate` per constructive layer, made by that layer's
    # `satisfies`: the model maps trust their certified input.
    calls = []

    def counted(*args):
        calls.append(args[1])
        return relmodel.validate(*args)

    for module in (semantics, translate, solver):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counted)
    f = parse_pdl("[a]p") if logic in ("k_star", "pdl") else parse_formula("[]p")
    assert not chain_decide(logic, f).valid
    assert len(calls) == _MODEL_MAPS[logic], calls
    # A one-world answer is validated once if its class is constructive.
    calls.clear()
    assert not _one_world_answer(logic, monkeypatch).valid
    assert len(calls) == int(not solver.LOGIC_TABLE[logic].classical), calls


def test_every_traced_function_is_called_where_the_tracer_wraps_it():
    # The benchmark's tracer wraps each function at the module attribute the
    # pipeline looks it up through; a caller that bound the name at import
    # time would bypass its wrapper, and that layer's span would read zero.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    tracer = tracing.Tracer()
    assert tracer.missing == []
    tracer.install()
    try:
        with tracer.query(0):
            for logic in LOGICS:
                if logic in ("pdl", "k_star"):
                    f = syntax.parse_pdl("[a]p")
                else:
                    f = syntax.parse_formula("[]p")
                # `decide` answers from one world; the chain maps and
                # certifies its own countermodel.
                for v in (solver.decide(logic, f), chain_decide(logic, f)):
                    assert not v.valid and v.to_obj()["verdict"] == "invalid", logic
            bounded = oracle.brute_force_decide(
                "ck_star", syntax.parse_formula("[]p"), oracle.EnumSpec(2, ("p",)))
            assert not bounded.valid_up_to_bound
    finally:
        tracer.uninstall()
    fired = {span[3] for span in tracer.spans}
    # No query path calls these two: the solver calls `omega` by the name it
    # imported, and the maps trust their certified input.
    unused = {"translate.validate", "translate.omega"}
    wrapped = {f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr in tracing.WRAPPED}
    assert wrapped - unused <= fired, sorted(wrapped - unused - fired)


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
        chain_decide(logic, parse_formula(source))
    assert condition in {v.condition for v in validate(made[0], logic)}


def _broken_map(monkeypatch, name, breaks):
    """Patch the model map `name` in `solver` to pass its output to `breaks`."""
    original = getattr(solver, name)
    monkeypatch.setattr(solver, name, lambda *args: breaks(original(*args)))


def test_wk_layer_refuses_a_bad_model_from_its_map(monkeypatch):
    def irreflexive(m):
        rows = (m.pre.rows[0] & ~1,) + m.pre.rows[1:]
        return dataclasses.replace(m, pre=Relation(m.worlds, rows))

    _broken_map(monkeypatch, "pdl_model_to_wk", irreflexive)
    with pytest.raises(CertificationError,
                       match="wk countermodel violates pre-not-preorder"):
        chain_decide("wk_star", parse_formula("[]p"))


def test_ck_layer_refuses_a_bad_model_from_its_map(monkeypatch):
    # Excluded middle fails at a world below one where p holds; giving p
    # to that world alone breaks persistence along the preorder.
    def unpersistent(m):
        w, v = next((w, v) for w in range(m.worlds)
                    for v in bits_of(m.pre.rows[w] & ~m.bot) if v != w)
        return dataclasses.replace(m, val={**m.val, "p": 1 << w | m.bot})

    _broken_map(monkeypatch, "wk_model_to_ck", unpersistent)
    with pytest.raises(CertificationError,
                       match="ck countermodel violates atomic-persistence"):
        chain_decide("ck_star", parse_formula("p | ~p"))


@pytest.mark.parametrize("logic", ["cs4", "ws4"])
def test_layer_refuses_a_valid_model_under_another_label(logic, monkeypatch):
    # The doubled model is in its class, but a map must also name it so.
    _broken_map(monkeypatch, "ck_model_to_cs4",
                lambda m: dataclasses.replace(m, kind="ck"))
    with pytest.raises(CertificationError, match=f"{logic} countermodel is labelled ck"):
        chain_decide(logic, parse_formula("[]p"))


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


def test_queries_leave_no_cyclic_garbage(tmp_path, capsys):
    """Reference counting frees everything a query builds when it returns:
    no path below leaves an object that only the cyclic collector can
    free.  The first round warms the caches (`_falsum_image`'s, the
    oracle's block cache and the CLI's parser); `gc.DEBUG_SAVEALL` keeps
    what the collector finds after the second."""
    import gc

    from ckstar import cli
    from ckstar.oracle import EnumSpec, brute_force_decide, random_formula
    from ckstar.syntax import ParseError, subformulas
    from ckstar.translate import TranslationError, kappa, omega, tau

    constructive = (parse_formula("[](p -> p)"), parse_formula("[]p | ~[]p"))
    classical = (parse_pdl("[a](p | !p)"), parse_pdl("[a]p | [a]!p"))
    batch = tmp_path / "batch.txt"
    batch.write_text("[](p -> p)\n[]p | ~[]p\np &\n<*>p_bot\n", encoding="utf-8")

    # A plain `except`, not `pytest.raises`: what the latter keeps of the
    # exception depends on the pytest version, and this test must see only
    # what the package leaves.
    def refused(error, call, *call_args):
        try:
            call(*call_args)
        except error:
            return
        raise AssertionError(f"{call.__name__} did not raise {error.__name__}")

    def queries():
        for logic in LOGICS:
            for f in classical if solver.LOGIC_TABLE[logic].classical else constructive:
                v = decide(logic, f)
                if not v.valid:
                    check = pdl_satisfies if isinstance(v.model, PdlModel) else satisfies
                    assert not check(v.model, v.world, f)
        refused(ParseError, parse_formula, "p &")
        refused(FragmentError, decide, "cs4", parse_formula("[*]p"))
        refused(TranslationError, omega, parse_formula("p_bot"))
        spec = EnumSpec(2, ("p",))
        assert not brute_force_decide("ck_star", constructive[1], spec).valid_up_to_bound
        assert not brute_force_decide("k_star", classical[1], spec).valid_up_to_bound
        f = constructive[1]
        omega(f), tau(f), kappa(f), iota(classical[1]), subformulas(f)
        random_formula(2, 3, ("p",))
        assert cli.main(["decide", "--logic", "ck_star", "@" + str(batch)]) == 2
        assert cli.main(["gen-formula", "--seed", "7"]) == 0

    saved = gc.get_debug()
    try:
        queries()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        queries()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()
        capsys.readouterr()
