"""Test-free PDL satisfiability and the logic table that decides validity.

Two engines share the Fischer-Ladner closure machinery:

* `pdl_satisfiable` explores a globally cached decomposition graph whose
  states are consistent demand sets.  Saturated states carry modal
  obligations (negative atomic boxes, each spawning one successor demand)
  and star eventualities (negative starred boxes, discharged by reaching a
  refuting state along a word of the star's language, tracked with program
  derivatives).  States with unwitnessed obligations or unfulfillable
  eventualities are deleted to a fixpoint; the survivors yield a model.
  The graph is expanded depth first and eliminated at checkpoints
  (`CHECK_FIRST` states, then every `CHECK_GROWTH`-fold growth) with the
  unexpanded states counted dead.  The surviving set only grows as more
  states are expanded, so a root alive on the expanded part is alive in
  the whole graph: the search stops there and extracts its model.
  Elimination stops as soon as the root is dead.
* `pdl_satisfiable_exhaustive` enumerates every locally consistent sign
  vector over the closure and runs the classic elimination loop.  It is
  exponential in the closure, guarded by `max_closure`, and kept as a
  differential-testing reference.

`LOGIC_TABLE` has one row per logic: its input language, whether the
reserved atom p_bot may occur, its countermodel class, its parent logic,
the formula map into the parent and the model map back.  The rows form
the paper's chain of reductions: `pdl` is the root, `k_star` and
`wk_star` (by `tau`) sit on it, `ck_star` (by `omega`), `ck_star_box`
(identity) and `ws4` (by `kappa`) on `wk_star`, and `cs4` (by `kappa`)
on `ck_star`.  `decide` checks the input, decides the mapped formula in
the parent, and maps a countermodel back.  Each layer is certified once:
`pdl_satisfiable` checks the PDL model with the independent evaluator,
and every model map into a constructive class is checked with
`satisfies` against the source formula.  The oracle and the CLI read
the same table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .relmodel import BiModel, PdlModel, Relation, rel_compose, rel_star
from .semantics import pdl_satisfies, satisfies
from .syntax import (
    BoxP,
    Comp,
    FragmentError,
    FragmentTag,
    Neg,
    PAtom,
    PdlAnd,
    PdlAtom,
    PdlFormula,
    PdlOr,
    Program,
    P_BOT,
    Star,
    check_fragment,
    iter_nodes,
    render,
    variables,
)
from .translate import (
    ck_model_to_cs4,
    kappa,
    omega,
    pdl_model_to_wk,
    tau,
    wk_model_to_ck,
)


class CertificationError(RuntimeError):
    """An Invalid verdict failed its independent re-check; never reported."""


@dataclass(frozen=True)
class ClosureSet:
    formulas: tuple[PdlFormula, ...]
    index: dict

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: PdlFormula) -> bool:
        return f in self.index


def fl_closure(f: PdlFormula) -> ClosureSet:
    """Least superset of {f} closed under subformulas and program unfolding:
    a composition box unfolds to nested boxes, a starred box to its body and
    its one-step unfolding."""
    order: list[PdlFormula] = []
    index: dict[PdlFormula, int] = {}
    queue = deque([f])
    while queue:
        g = queue.popleft()
        if g in index:
            continue
        index[g] = len(order)
        order.append(g)
        if isinstance(g, Neg):
            queue.append(g.body)
        elif isinstance(g, (PdlAnd, PdlOr)):
            queue.append(g.left)
            queue.append(g.right)
        elif isinstance(g, BoxP):
            prog = g.prog
            if isinstance(prog, PAtom):
                queue.append(g.body)
            elif isinstance(prog, Comp):
                queue.append(BoxP(prog.left, BoxP(prog.right, g.body)))
            elif isinstance(prog, Star):
                queue.append(g.body)
                queue.append(BoxP(prog.body, g))
            else:
                raise TypeError(f"unknown program node {type(prog).__name__}")
        elif not isinstance(g, PdlAtom):
            raise TypeError(f"not a PDL formula: {type(g).__name__}")
    return ClosureSet(tuple(order), index)


def iter_programs(p: Program):
    stack = [p]
    while stack:
        q = stack.pop()
        yield q
        if isinstance(q, Comp):
            stack.append(q.left)
            stack.append(q.right)
        elif isinstance(q, Star):
            stack.append(q.body)


def _program_atoms(f: PdlFormula) -> list[str]:
    return sorted({q.name for g in iter_nodes(f) if isinstance(g, BoxP)
                   for q in iter_programs(g.prog) if isinstance(q, PAtom)})


# ---------------------------------------------------------------------------
# Program derivatives (word tracking for starred obligations)


def _nullable(p: "Program | None") -> bool:
    if p is None or isinstance(p, Star):
        return True
    if isinstance(p, PAtom):
        return False
    return _nullable(p.left) and _nullable(p.right)


def _seq(d: "Program | None", rest: Program) -> Program:
    return rest if d is None else Comp(d, rest)


def _derive(p: "Program | None", x: str) -> tuple:
    """Residual programs after consuming the atomic step x (None is the
    empty program)."""
    if p is None:
        return ()
    if isinstance(p, PAtom):
        return (None,) if p.name == x else ()
    if isinstance(p, Star):
        return tuple(_seq(d, p) for d in _derive(p.body, x))
    if isinstance(p, Comp):
        out = [_seq(d, p.right) for d in _derive(p.left, x)]
        if _nullable(p.left):
            out.extend(_derive(p.right, x))
        return tuple(out)
    raise TypeError(f"unknown program node {type(p).__name__}")


# ---------------------------------------------------------------------------
# Tableau engine

_ATOM, _NEG, _AND, _OR, _BOX_A, _BOX_C, _BOX_S = range(7)
_LIT, _DET, _BRANCH, _BRANCH_STAR = range(4)

# The depth-first build eliminates on the expanded part first after
# CHECK_FIRST states, then each time their count has grown CHECK_GROWTH-fold.
# Wide spacing keeps the checkpoints cheap for formulas that expand the
# whole graph: the parts they eliminate sum to under a fifteenth of it.
CHECK_FIRST = 16
CHECK_GROWTH = 16

# States are frozensets of member codes (closure index << 1 | sign) with no
# clashing pair.  Unsaturated states decompose one member per step, so
# branch combinations share structure as a cached DAG instead of an
# exponential enumeration of full saturations.
#
# A negated starred box must keep its deferral branch available even when
# the fulfilling branch's demand is already present: the deferral is what
# plants the modal obligation its own fulfillment path runs along.  Those
# members therefore branch under a decision marker (a code above the real
# range) instead of the presence short-circuit, which stays sound for the
# truth-functional connectives.


class _Tableau:
    def __init__(self, goal: PdlFormula):
        self.goal = goal
        self.closure = fl_closure(goal)
        forms = self.closure.formulas
        index = self.closure.index
        self.goal_code = index[goal] << 1 | 1
        kinds: list[int] = []
        args: list = []
        for g in forms:
            if isinstance(g, PdlAtom):
                kinds.append(_ATOM)
                args.append(g.name)
            elif isinstance(g, Neg):
                kinds.append(_NEG)
                args.append(index[g.body])
            elif isinstance(g, PdlAnd):
                kinds.append(_AND)
                args.append((index[g.left], index[g.right]))
            elif isinstance(g, PdlOr):
                kinds.append(_OR)
                args.append((index[g.left], index[g.right]))
            elif isinstance(g.prog, PAtom):
                kinds.append(_BOX_A)
                args.append((g.prog.name, index[g.body]))
            elif isinstance(g.prog, Comp):
                unfolded = BoxP(g.prog.left, BoxP(g.prog.right, g.body))
                kinds.append(_BOX_C)
                args.append(index[unfolded])
            else:
                unfold = BoxP(g.prog.body, g)
                kinds.append(_BOX_S)
                args.append((index[g.body], index[unfold], g.prog))
        self.kind = kinds
        self.args = args
        # Decomposition plan per member code: literal, add-all, or branch.
        plan: list[tuple] = []
        for i in range(len(forms)):
            k, a = kinds[i], args[i]
            for sign in (0, 1):
                if k in (_ATOM, _BOX_A):
                    plan.append((_LIT, ()))
                elif k == _NEG:
                    plan.append((_DET, (a << 1 | (sign ^ 1),)))
                elif k == _AND:
                    kids = (a[0] << 1 | sign, a[1] << 1 | sign)
                    plan.append((_DET, kids) if sign else (_BRANCH, kids))
                elif k == _OR:
                    kids = (a[0] << 1 | sign, a[1] << 1 | sign)
                    plan.append((_BRANCH, kids) if sign else (_DET, kids))
                elif k == _BOX_C:
                    plan.append((_DET, (a << 1 | sign,)))
                else:  # _BOX_S: body here, and again after one program step
                    kids = (a[0] << 1 | sign, a[1] << 1 | sign)
                    plan.append((_DET, kids) if sign else (_BRANCH_STAR, kids))
        self.plan = plan
        self.marker_base = 2 * len(forms)
        self._aut_cache: dict[Program, tuple] = {}
        # state -> ("or", successors) | ("sat", obligations, eventualities);
        # obligation = (program atom, refuted body index, demand state|None)
        self.info: dict[frozenset, tuple] = {}
        self.order: list[frozenset] = []
        self.root: frozenset = frozenset([self.goal_code])
        self.rounds: list[int] = []

    def _extend(self, state: frozenset, codes: tuple) -> "frozenset | None":
        """state plus codes, or None on a sign clash."""
        for c in codes:
            if c ^ 1 in state:
                return None
        return state | frozenset(codes)

    def _process(self, state: frozenset) -> tuple:
        plan = self.plan
        base = self.marker_base
        # Close under the single-successor rules first so deterministic
        # chains cost one graph node instead of one per step.
        cur = set(state)
        grown = False
        rescan = True
        while rescan:
            rescan = False
            for c in sorted(cur):
                if c >= base:
                    continue
                mode, kids = plan[c]
                if mode == _LIT:
                    continue
                if mode == _DET:
                    missing = [k for k in kids if k not in cur]
                    if not missing:
                        continue
                    for k in missing:
                        if k ^ 1 in cur:
                            return ("or", ())  # clash
                        cur.add(k)
                    grown = True
                    rescan = True
                    break
                # Unit propagation: a branch with one refuted side forces
                # the other.
                if mode == _BRANCH_STAR:
                    marker = base + (c & ~1)
                    if marker in cur:
                        continue
                else:
                    marker = None
                    if any(k in cur for k in kids):
                        continue
                open_kids = [k for k in kids if k ^ 1 not in cur]
                if not open_kids:
                    return ("or", ())  # both sides clash
                if len(open_kids) == 1:
                    cur.add(open_kids[0])
                    if marker is not None:
                        cur.add(marker)
                    grown = True
                    rescan = True
                    break
        if grown:
            return ("or", (frozenset(cur),))
        for c in sorted(state):
            if c >= base:
                continue
            mode, kids = plan[c]
            if mode in (_LIT, _DET):
                continue
            if mode == _BRANCH_STAR:
                marker = base + (c & ~1)
                if marker in state:
                    continue
                succs = []
                for k in kids:
                    succ = self._extend(state, (k,))
                    if succ is not None:
                        succs.append(succ | {marker})
                return ("or", tuple(succs))
            if any(k in state for k in kids):
                continue
            succs = []
            for k in kids:
                succ = self._extend(state, (k,))
                if succ is not None:
                    succs.append(succ)
            return ("or", tuple(succs))
        # Saturated: collect modal obligations and star eventualities.
        positives: dict[str, list[int]] = {}
        for c in sorted(state):
            if c < base and c & 1 and self.kind[c >> 1] == _BOX_A:
                a, body = self.args[c >> 1]
                positives.setdefault(a, []).append(body)
        obligations = []
        eventualities = []
        for c in sorted(state):
            if c >= base or c & 1:
                continue
            i = c >> 1
            k = self.kind[i]
            if k == _BOX_A:
                a, body = self.args[i]
                demand = self._extend(
                    frozenset(b << 1 | 1 for b in positives.get(a, ())),
                    (body << 1,))
                obligations.append((a, body, demand))
            elif k == _BOX_S:
                eventualities.append(i)
        return ("sat", obligations, eventualities)

    def build(self) -> set:
        """Expand states depth first, first branch first, and return the
        alive set of the elimination that decided.  At each checkpoint the
        expanded part is eliminated with the rest counted dead; a root that
        survives there survives in the whole graph, so the search stops."""
        stack = [self.root]
        checkpoint = CHECK_FIRST
        while stack:
            state = stack.pop()
            if state in self.info:
                continue
            entry = self._process(state)
            self.info[state] = entry
            self.order.append(state)
            if entry[0] == "or":
                stack.extend(reversed(entry[1]))
            else:
                stack.extend(demand for _, _, demand in reversed(entry[1])
                             if demand is not None)
            if len(self.order) == checkpoint:
                checkpoint *= CHECK_GROWTH
                alive = self.eliminate()
                if self.root in alive:
                    return alive
        return self.eliminate()

    def _automaton(self, prog: Program) -> tuple:
        """Derivative automaton of a starred program: start index, nullable
        state indices, reversed transitions by label."""
        cached = self._aut_cache.get(prog)
        if cached is not None:
            return cached
        alphabet = sorted({q.name for q in iter_programs(prog)
                           if isinstance(q, PAtom)})
        states: list[Program] = [prog]
        pos = {prog: 0}
        work = [prog]
        while work:
            r = work.pop()
            for x in alphabet:
                for d in _derive(r, x):
                    if d not in pos:
                        pos[d] = len(states)
                        states.append(d)
                        work.append(d)
        rev: dict[str, dict[int, list[int]]] = {x: {} for x in alphabet}
        for r in states:
            for x in alphabet:
                for d in _derive(r, x):
                    rev[x].setdefault(pos[d], []).append(pos[r])
        nullable = tuple(i for i, r in enumerate(states) if _nullable(r))
        result = (0, nullable, rev)
        self._aut_cache[prog] = result
        return result

    def _fulfilled(self, member: int, alive: set, rev_steps: dict,
                   trace: "dict | None" = None) -> set:
        """Alive states from which a word of the starred program's language
        (letters consumed at modal steps, epsilon at decompositions) reaches
        an alive saturated state demanding the body false.

        When `trace` is given, each marked non-terminal product state gets a
        forward pointer (letter, next state, next residual) along one such
        path; pointers always lead to earlier-marked states, so chains are
        finite and end at a refuting state."""
        body, _unfold, prog = self.args[member]
        start, nullable, rev_deriv = self._automaton(prog)
        bad_code = body << 1
        marked: set[tuple] = set()
        work: list[tuple] = []
        for u in alive:
            if bad_code in u and self.info[u][0] == "sat":
                for r in nullable:
                    state = (u, r)
                    marked.add(state)
                    work.append(state)
        while work:
            u2, r2 = work.pop()
            preds = rev_steps.get(u2)
            if not preds:
                continue
            for x, u1 in preds:
                if x is None:  # decomposition step, no letter consumed
                    state = (u1, r2)
                    if state not in marked:
                        marked.add(state)
                        work.append(state)
                        if trace is not None:
                            trace[state] = (None, u2, r2)
                    continue
                table = rev_deriv.get(x)
                if not table:
                    continue
                for r1 in table.get(r2, ()):
                    state = (u1, r1)
                    if state not in marked:
                        marked.add(state)
                        work.append(state)
                        if trace is not None:
                            trace[state] = (x, u2, r2)
        return {u for u in alive if (u, start) in marked}

    def _alive_steps(self, alive: set) -> tuple[dict, set]:
        """Reverse steps among alive states, as (letter, predecessor) with
        letter None for a decomposition, and the eventuality families of
        the alive saturated states."""
        rev_steps: dict[frozenset, list] = {}
        families: set[int] = set()
        for state in self.order:
            if state not in alive:
                continue
            entry = self.info[state]
            if entry[0] == "or":
                for succ in entry[1]:
                    if succ in alive:
                        rev_steps.setdefault(succ, []).append((None, state))
            else:
                families.update(entry[2])
                for a, _, demand in entry[1]:
                    if demand is not None and demand in alive:
                        rev_steps.setdefault(demand, []).append((a, state))
        return rev_steps, families

    def eliminate(self) -> set:
        """Expanded states that survive deletion to a fixpoint; states not
        expanded count as dead.  Stops early once the root is dead, since
        then only `root in alive` is read."""
        self.rounds = []
        alive = set(self.order)
        parents: dict[frozenset, list] = {}
        for state in self.order:
            entry = self.info[state]
            if entry[0] == "or":
                for succ in entry[1]:
                    parents.setdefault(succ, []).append(state)
            else:
                for _, _, demand in entry[1]:
                    if demand is not None:
                        parents.setdefault(demand, []).append(state)

        def locally_dead(state: frozenset) -> bool:
            entry = self.info[state]
            if entry[0] == "or":
                return not any(s in alive for s in entry[1])
            return any(demand is None or demand not in alive
                       for _, _, demand in entry[1])

        def propagate(seed) -> None:
            work = deque(seed)
            while work:
                state = work.popleft()
                if state in alive and locally_dead(state):
                    alive.discard(state)
                    work.extend(parents.get(state, ()))

        propagate(self.order)
        while self.root in alive:
            self.rounds.append(len(alive))
            rev_steps, families = self._alive_steps(alive)
            fulfilled = {i: self._fulfilled(i, alive, rev_steps)
                         for i in sorted(families)}
            doomed = []
            for state in self.order:
                if state not in alive or self.info[state][0] == "or":
                    continue
                if any(state not in fulfilled[i] for i in self.info[state][2]):
                    doomed.append(state)
            if not doomed:
                return alive
            seeds = []
            for state in doomed:
                alive.discard(state)
                seeds.extend(parents.get(state, ()))
            propagate(seeds)
        return alive

    def _saturations(self, state: frozenset, alive: set,
                     memo: dict) -> tuple:
        """Alive saturated states reachable by decompositions, depth first.
        The decomposition graph only grows states, so it is acyclic."""
        got = memo.get(state)
        if got is not None:
            return got
        entry = self.info[state]
        if entry[0] == "sat":
            out = (state,)
        else:
            collected: list = []
            seen: set = set()
            for succ in entry[1]:
                if succ not in alive:
                    continue
                for sat in self._saturations(succ, alive, memo):
                    if sat not in seen:
                        seen.add(sat)
                        collected.append(sat)
            out = tuple(collected)
        memo[state] = out
        return out

    def extract(self, alive: set) -> tuple[PdlModel, int]:
        """Minimal certified model: one witness per modal obligation plus
        the saturated states along one recorded fulfillment path per
        eventuality, instead of everything reachable."""
        memo: dict = {}
        rev_steps, families = self._alive_steps(alive)
        traces: dict[int, dict] = {}
        for i in sorted(families):
            trace: dict = {}
            self._fulfilled(i, alive, rev_steps, trace)
            traces[i] = trace
        designated = self._saturations(self.root, alive, memo)[0]
        order = [designated]
        index = {designated: 0}
        queue = deque([designated])
        edges: dict[str, set[tuple[int, int]]] = {
            a: set() for a in _program_atoms(self.goal)}

        def world_of(node: frozenset) -> int:
            w = index.get(node)
            if w is None:
                w = index[node] = len(order)
                order.append(node)
                queue.append(node)
            return w

        while queue:
            node = queue.popleft()
            w = index[node]
            obligations, eventualities = self.info[node][1:]
            for a, _, demand in obligations:
                target = self._saturations(demand, alive, memo)[0]
                edges.setdefault(a, set()).add((w, world_of(target)))
            for i in eventualities:
                trace = traces[i]
                state = (node, 0)  # the automaton's start index
                last_w = w
                letter = None
                while state in trace:
                    x, nxt, r = trace[state]
                    if x is not None:
                        letter = x
                    if self.info[nxt][0] == "sat":
                        # Saturated states only step via modal edges, so each
                        # segment between them carries exactly one letter.
                        assert letter is not None
                        v = world_of(nxt)
                        edges.setdefault(letter, set()).add((last_w, v))
                        last_w, letter = v, None
                    state = (nxt, r)
        n = len(order)
        val: dict[str, set[int]] = {}
        for node in order:
            w = index[node]
            for code in node:
                if code < self.marker_base and code & 1 \
                        and self.kind[code >> 1] == _ATOM:
                    val.setdefault(self.args[code >> 1], set()).add(w)
        rho = {a: Relation.from_pairs(n, sorted(ps)) for a, ps in edges.items()}
        model = PdlModel(n, rho, {p: frozenset(ws) for p, ws in val.items()})
        return model, 0


def pdl_satisfiable(f: PdlFormula, stats: "dict | None" = None):
    """Model and world satisfying f, or None.  The returned model is always
    re-checked with the independent evaluator."""
    engine = _Tableau(f)
    alive = engine.build()
    if stats is not None:
        stats["nodes"] = len(engine.order)
        stats["rounds"] = engine.rounds
        stats["closure"] = len(engine.closure)
    if engine.root not in alive:
        return None
    model, world = engine.extract(alive)
    if not pdl_satisfies(model, world, f):
        raise CertificationError(
            f"extracted model does not satisfy {render(f)!r}")
    return model, world


# ---------------------------------------------------------------------------
# Exhaustive reference engine (locally consistent total types + elimination)


def _local_constraints(closure: ClosureSet) -> list[tuple]:
    """Sign constraints between closure members, each tagged with the last
    index it mentions so backtracking can check it as early as possible."""
    idx = closure.index
    cons = []
    for i, g in enumerate(closure.formulas):
        if isinstance(g, Neg):
            cons.append(("neg", i, idx[g.body]))
        elif isinstance(g, PdlAnd):
            cons.append(("and", i, idx[g.left], idx[g.right]))
        elif isinstance(g, PdlOr):
            cons.append(("or", i, idx[g.left], idx[g.right]))
        elif isinstance(g, BoxP) and isinstance(g.prog, Comp):
            unfolded = BoxP(g.prog.left, BoxP(g.prog.right, g.body))
            cons.append(("eq", i, idx[unfolded]))
        elif isinstance(g, BoxP) and isinstance(g.prog, Star):
            cons.append(("and", i, idx[g.body], idx[BoxP(g.prog.body, g)]))
    return cons


def _consistent_types(closure: ClosureSet) -> list[int]:
    """All locally consistent sign vectors, generated by backtracking over
    the closure order (star constraints can be cyclic, so signs are not a
    function of the atomic members; enumeration keeps every solution)."""
    k = len(closure)
    by_trigger: list[list[tuple]] = [[] for _ in range(k)]
    for con in _local_constraints(closure):
        by_trigger[max(con[1:])].append(con)

    def holds(con: tuple, bits: int) -> bool:
        kind = con[0]
        if kind == "neg":
            return (bits >> con[1] & 1) != (bits >> con[2] & 1)
        if kind == "eq":
            return (bits >> con[1] & 1) == (bits >> con[2] & 1)
        a, b = bits >> con[2] & 1, bits >> con[3] & 1
        if kind == "and":
            return (bits >> con[1] & 1) == (a & b)
        return (bits >> con[1] & 1) == (a | b)

    types: list[int] = []
    stack = [(0, 0)]
    while stack:
        i, bits = stack.pop()
        if i == k:
            types.append(bits)
            continue
        for sign in (1, 0):
            cand = bits | (sign << i)
            if all(holds(con, cand) for con in by_trigger[i]):
                stack.append((i + 1, cand))
    types.sort()
    return types


def pdl_satisfiable_exhaustive(f: PdlFormula, max_closure: int = 22,
                               stats: "dict | None" = None):
    """Textbook type elimination over every locally consistent sign
    vector; worst-case exponential in the closure, so only usable on small
    inputs."""
    closure = fl_closure(f)
    if len(closure) > max_closure:
        raise ValueError(
            f"closure of {len(closure)} members exceeds the exhaustive "
            f"engine's limit of {max_closure}")
    types = _consistent_types(closure)
    atoms = _program_atoms(f)
    boxes = [(i, g) for i, g in enumerate(closure.formulas) if isinstance(g, BoxP)]
    atomic_boxes = {a: [(i, closure.index[g.body]) for i, g in boxes
                        if isinstance(g.prog, PAtom) and g.prog.name == a]
                    for a in atoms}

    alive = list(range(len(types)))
    rounds = [len(alive)]
    while True:
        pos = {}
        full = (1 << len(alive)) - 1
        for j, g in enumerate(closure.formulas):
            mask = 0
            for k, t in enumerate(alive):
                if types[t] >> j & 1:
                    mask |= 1 << k
            pos[j] = mask

        def delta_atom(a: str) -> Relation:
            rows = []
            for t in alive:
                row = full
                for i, body_idx in atomic_boxes[a]:
                    if types[t] >> i & 1:
                        row &= pos[body_idx]
                rows.append(row)
            return Relation(len(alive), tuple(rows))

        delta_memo: dict[Program, Relation] = {}

        def delta(prog: Program) -> Relation:
            r = delta_memo.get(prog)
            if r is not None:
                return r
            if isinstance(prog, PAtom):
                r = delta_atom(prog.name)
            elif isinstance(prog, Comp):
                r = rel_compose(delta(prog.left), delta(prog.right))
            else:
                r = rel_star(delta(prog.body))
            delta_memo[prog] = r
            return r

        survivors = []
        for k, t in enumerate(alive):
            ok = True
            for i, g in boxes:
                if types[t] >> i & 1:
                    continue
                body_idx = closure.index[g.body]
                witnesses = delta(g.prog).rows[k] & (full & ~pos[body_idx])
                if witnesses == 0:
                    ok = False
                    break
            if ok:
                survivors.append(t)
        if len(survivors) == len(alive):
            break
        alive = survivors
        rounds.append(len(alive))
    if stats is not None:
        stats["types"] = len(types)
        stats["rounds"] = rounds
        stats["closure"] = len(closure)

    goal_idx = closure.index[f]
    designated = next((t for t in alive if types[t] >> goal_idx & 1), None)
    if designated is None:
        return None
    # Restrict to types reachable from the designated one.
    pos_of = {t: k for k, t in enumerate(alive)}
    step = Relation.empty(len(alive))
    for a in atoms:
        rows = []
        for t in alive:
            row = 0
            for u in alive:
                if all(not (types[t] >> i & 1) or (types[u] >> b & 1)
                       for i, b in atomic_boxes[a]):
                    row |= 1 << pos_of[u]
            rows.append(row)
        step = step.union(Relation(len(alive), tuple(rows)))
    reach_mask = rel_star(step).rows[pos_of[designated]]
    keep = [alive[k] for k in range(len(alive)) if reach_mask >> k & 1]
    if designated not in keep:
        keep.append(designated)
    keep.sort(key=alive.index)
    idx = {t: k for k, t in enumerate(keep)}
    n = len(keep)
    rho = {}
    for a in atoms:
        pairs = [(idx[t], idx[u]) for t in keep for u in keep
                 if all(not (types[t] >> i & 1) or (types[u] >> b & 1)
                        for i, b in atomic_boxes[a])]
        rho[a] = Relation.from_pairs(n, pairs)
    val = {}
    for j, g in enumerate(closure.formulas):
        if isinstance(g, PdlAtom):
            val[g.name] = frozenset(idx[t] for t in keep if types[t] >> j & 1)
    model = PdlModel(n, rho, val)
    world = idx[designated]
    if not pdl_satisfies(model, world, f):
        raise CertificationError(
            f"exhaustive engine model does not satisfy {render(f)!r}")
    return model, world


# ---------------------------------------------------------------------------
# Verdicts and the logic table


@dataclass
class Verdict:
    valid: bool
    model: "BiModel | PdlModel | None" = None
    world: "int | None" = None
    certified: "bool | None" = None

    def to_obj(self) -> dict:
        if self.valid:
            return {"verdict": "valid"}
        from .relmodel import model_to_obj
        return {"verdict": "invalid", "world": self.world,
                "model": model_to_obj(self.model)}


def pdl_valid(f: PdlFormula) -> Verdict:
    """Valid iff the negation is unsatisfiable.  The countermodel needs no
    second check: `pdl_satisfiable` certified the negation at its world."""
    found = pdl_satisfiable(Neg(f))
    if found is None:
        return Verdict(True)
    return Verdict(False, *found, True)


def _ensure_rho(m: PdlModel, atoms: tuple[str, ...]) -> PdlModel:
    if all(a in m.rho for a in atoms):
        return m
    rho = dict(m.rho)
    for a in atoms:
        rho.setdefault(a, Relation.empty(m.worlds))
    return PdlModel(m.worlds, rho, m.val)


@dataclass(frozen=True)
class Logic:
    """One row of the logic table: the input a logic accepts, its
    countermodel class, and one reduction step to its parent logic.

    `down` maps a formula into the parent's language; `back` maps a
    parent countermodel and world, plus the source formula, to one of
    this logic's.  None means the identity.  The maps are lambdas so the
    functions they call are looked up in this module when they run.
    """

    parent: "str | None"            # None only for the root, pdl
    language: "FragmentTag | None"  # None is all of test-free PDL
    p_bot: bool                     # input may use the reserved atom p_bot
    kind: str                       # a BiModel kind, "k" or "pdl"
    down: "Callable | None" = None
    back: "Callable | None" = None

    @property
    def classical(self) -> bool:
        """Input is PDL syntax and countermodels are `PdlModel`s."""
        return self.kind in ("k", "pdl")


LOGIC_TABLE = {
    "ck_star": Logic("wk_star", FragmentTag.LSTAR, False, "ck",
                     lambda f: omega(f),
                     lambda m, w, f: (wk_model_to_ck(m, f), w)),
    "wk_star": Logic("pdl", FragmentTag.LSTAR, True, "wk",
                     lambda f: tau(f),
                     lambda m, w, f: (pdl_model_to_wk(_ensure_rho(m, ("i", "m"))), w)),
    # Diamond-free validity does not depend on fallibility, so the
    # infallible countermodel is already a constructive one.
    "ck_star_box": Logic("wk_star", FragmentTag.LSTAR_BOX, False, "ck"),
    # World w of the parent countermodel is world 2w (its first copy) of
    # the doubled bi-preorder.
    "cs4": Logic("ck_star", FragmentTag.L, False, "cs4",
                 lambda f: kappa(f),
                 lambda m, w, f: (ck_model_to_cs4(m)[0], 2 * w)),
    "ws4": Logic("wk_star", FragmentTag.L, True, "ws4",
                 lambda f: kappa(f),
                 lambda m, w, f: (ck_model_to_cs4(m)[0], 2 * w)),
    "k_star": Logic("pdl", FragmentTag.LK_STAR, True, "k",
                    back=lambda m, w, f: (_ensure_rho(m, ("a",)), w)),
    "pdl": Logic(None, None, True, "pdl"),
}
LOGICS = tuple(LOGIC_TABLE)


def check_input(logic: str, f) -> Logic:
    """The table row of `logic`, after checking that f is in its input
    language: ValueError for an unknown logic, FragmentError for f."""
    row = LOGIC_TABLE.get(logic)
    if row is None:
        raise ValueError(f"unknown logic {logic!r}")
    if not (isinstance(f, PdlFormula) if row.language is None
            else check_fragment(f, row.language)):
        raise FragmentError(f"formula is not in the input language of {logic}")
    if not row.p_bot and P_BOT in variables(f):
        raise FragmentError(
            f"atom {P_BOT!r} is reserved and not in the language of {logic}")
    return row


def decide(logic: str, f) -> Verdict:
    """Validity in the named logic, decided in its parent logic down to
    PDL.  An Invalid verdict's countermodel is mapped back one row at a
    time and certified once per map into a constructive model class."""
    return _decide(check_input(logic, f), f)


def _decide(row: Logic, f) -> Verdict:
    """`decide` on input already checked against `row`.  Each map down
    yields the parent's language by construction, so only the source
    formula is checked."""
    if row.parent is None:
        return pdl_valid(f)
    v = _decide(LOGIC_TABLE[row.parent], f if row.down is None else row.down(f))
    if v.valid or row.back is None:
        return v
    model, world = row.back(v.model, v.world, f)
    if not row.classical and satisfies(model, world, f):
        raise CertificationError(
            f"{row.kind} countermodel fails to falsify the source formula")
    return Verdict(False, model, world, True)
