"""Test-free PDL satisfiability and the logic table that decides validity.

`fl_closure` is the one place that knows how a PDL formula decomposes: its
breadth-first pass builds the node table (each closure member's kind and
arguments, see `ClosureSet`) that the tableau's plan and model
extraction read.  The table also holds each star eventuality's word
automaton: `[P*]B` unfolds through composition and starred boxes to
atomic boxes, whose letters spell out the words of `P*` (Fischer and
Ladner), so programs are decomposed nowhere else.

`pdl_satisfiable` explores a globally cached decomposition graph whose
states are consistent demand sets.  Saturated states carry modal
obligations (negative atomic boxes, each spawning one successor demand)
and star eventualities (negative starred boxes, discharged by reaching a
refuting state along a word of the star's language, tracked with the
star's automaton).  States with unwitnessed obligations or unfulfillable
eventualities are deleted to a fixpoint; the survivors yield a model.
A state's survival depends only on the states it reaches, so one
iterative Tarjan search expands the graph depth first and settles each
strongly connected component as it closes, against the settled states
below it; fulfilment marks are one int per state, a bit per (star
family, automaton state).  The search runs in passes.  A pass follows
every demand of a saturated state but only the first alternative of each
decomposition not yet released, and counts the states it does not reach
as dead.  The surviving set only grows with the graph, so a root alive
after a pass is alive in the whole graph: the search stops there and
extracts its model, whose eventuality witnesses are shortest paths
through the (state, mark bit) pairs set in the marks.  Otherwise the next
pass releases the other alternatives of the dead decompositions the pass
reached, or every deferred one if none of them died, and searches the
cached graph from the root again: no state is expanded twice, and every
state the pass reaches is settled anew.  A dead root whose subgraph
holds no deferred alternative is dead in the whole graph.  Pass `PASSES`
releases everything, so the answer stays exact.  A state is one int bit
mask, closed from the codes its discovery added (a worklist and per-code
watch lists) before it gets a dense integer id.  A clash gets no id: a
clashing alternative is dropped, a clashing demand kills its saturated
state, and a clashing goal is unsatisfiable.  An expanded state's entry
is all that the search reads of it: a decomposition's successor ids, or
a saturated state's demand ids, their letters, its eventualities and its
need and refute mark bits.
The tests pin the alive sets and marks to a global elimination with its
own marking (`tests/elimination.py`), and the verdicts to an exhaustive
type-elimination engine (`tests/exhaustive.py`).

`LOGIC_TABLE` has one row per logic: its input language, whether the
reserved atom p_bot may occur, its countermodel class, its parent logic,
the formula map into the parent and the model map back.  The rows form
the paper's chain of reductions: `pdl` is the root, `k_star` and
`wk_star` (by `tau`) sit on it, `ck_star` (by `omega`), `ck_star_box`
(identity) and `ws4` (by `kappa`) on `wk_star`, and `cs4` (by `kappa`)
on `ck_star`.  `decide` checks the input, decides the mapped formula in
the parent, and maps a countermodel back.  `pdl_satisfiable` checks its
PDL model with the independent evaluator.  After each model map into a
constructive class, `decide` checks the model with `validate` against
that class and with `satisfies` against the source formula; `satisfies`
validates its model as a `ck` model first, and `wk_model_to_ck` and
`ck_model_to_cs4` validate the model they are given.  So one Invalid
verdict runs `validate` 2 times under `wk_star`, 5 under `ck_star` and 8
under `cs4`.  The oracle and the CLI read the same table.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable

from .relmodel import BiModel, PdlModel, Relation, bits_of, mask_of, validate
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
    P_BOT,
    Star,
    check_fragment,
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


# Node kinds of closure members.
_ATOM, _NEG, _AND, _OR, _BOX_A, _BOX_C, _BOX_S = range(7)


@dataclass(frozen=True)
class ClosureSet:
    """Closure members in breadth-first order, with each member's node kind
    and arguments: an atom's name, a negation's body index, a connective's
    (left, right) indices, an atomic box's (program atom, body index), a
    composition box's unfolding index, and a starred box's (body index,
    unfolding index)."""

    formulas: tuple[PdlFormula, ...]
    index: dict
    kind: tuple[int, ...]
    args: tuple

    def __len__(self) -> int:
        return len(self.formulas)


def fl_closure(f: PdlFormula) -> ClosureSet:
    """Least superset of {f} closed under subformulas and program unfolding:
    a composition box unfolds to nested boxes, a starred box to its body and
    its one-step unfolding.  Members are numbered the first time they are
    seen, breadth first from f."""
    order: list[PdlFormula] = [f]
    index: dict[PdlFormula, int] = {f: 0}
    kinds: list[int] = []
    args: list = []

    def number(g: PdlFormula) -> int:
        i = index.get(g)
        if i is None:
            i = index[g] = len(order)
            order.append(g)
        return i

    for g in order:  # grows while it is read: the breadth-first queue
        if isinstance(g, PdlAtom):
            kinds.append(_ATOM)
            args.append(g.name)
        elif isinstance(g, Neg):
            kinds.append(_NEG)
            args.append(number(g.body))
        elif isinstance(g, (PdlAnd, PdlOr)):
            kinds.append(_AND if isinstance(g, PdlAnd) else _OR)
            args.append((number(g.left), number(g.right)))
        elif isinstance(g, BoxP):
            prog = g.prog
            if isinstance(prog, PAtom):
                kinds.append(_BOX_A)
                args.append((prog.name, number(g.body)))
            elif isinstance(prog, Comp):
                kinds.append(_BOX_C)
                args.append(number(BoxP(prog.left, BoxP(prog.right, g.body))))
            elif isinstance(prog, Star):
                kinds.append(_BOX_S)
                args.append((number(g.body), number(BoxP(prog.body, g))))
            else:
                raise TypeError(f"unknown program node {type(prog).__name__}")
        else:
            raise TypeError(f"not a PDL formula: {type(g).__name__}")
    return ClosureSet(tuple(order), index, tuple(kinds), tuple(args))


# ---------------------------------------------------------------------------
# Tableau engine

_LIT, _DET, _BRANCH, _BRANCH_STAR = range(4)

# The pass that releases every deferred alternative and defers none, so
# that its subgraph is the whole graph; 0 or 1 makes the first pass do so.
# A Valid formula must refute every alternative anyway, and the cap bounds
# the passes it pays for.
PASSES = 3
# Tarjan low links: of a state not visited in this pass, and of a settled
# one, above every slot on the stack.
_UNSEEN = -1
_SETTLED = 1 << 62


# A state is an int with bit c set for each member code c (closure index
# << 1 | sign), closed under the single-successor rules and with no
# clashing pair.  Unsaturated states decompose one open branch per step,
# so branch combinations share structure as a cached DAG instead of an
# exponential enumeration of full saturations.  Each state gets a dense id
# when it is first discovered; edges, alive sets and fulfilment marks are
# kept per id.
#
# A negated starred box must keep its deferral branch available even when
# the fulfilling branch's demand is already present: the deferral is what
# plants the modal obligation its own fulfillment path runs along.  Those
# members therefore branch under a decision marker (a code above the real
# range) instead of the presence short-circuit, which stays sound for the
# truth-functional connectives.


class _Tableau:
    def __init__(self, goal: PdlFormula):
        self.closure = fl_closure(goal)
        kinds = self.kind = self.closure.kind
        args = self.args = self.closure.args
        # Every program atom of the goal ends up in an atomic box once
        # compound programs are unfolded.
        self.alphabet = sorted({a[0] for k, a in zip(kinds, args) if k == _BOX_A})
        # Decomposition plan per member code: literal, add-all, or branch.
        plan: list[tuple] = []
        for k, a in zip(kinds, args):
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
        # Code masks by the phase of _process or extract that reads them.
        self.branches = mask_of(
            c for c, (mode, _) in enumerate(plan)
            if mode in (_BRANCH, _BRANCH_STAR))
        self.boxes_true = mask_of(
            c for c in range(len(plan)) if c & 1 and kinds[c >> 1] == _BOX_A)
        self.modals_false = mask_of(
            c for c in range(len(plan))
            if not c & 1 and kinds[c >> 1] in (_BOX_A, _BOX_S))
        self.atoms_true = mask_of(
            c for c in range(len(plan)) if c & 1 and kinds[c >> 1] == _ATOM)
        # watch[c]: the branch members whose unit rule can fire once c is
        # present, namely c itself and those with a kid that c refutes.
        watch: list[list[int]] = [[] for _ in plan]
        for b, (mode, kids) in enumerate(plan):
            if mode in (_BRANCH, _BRANCH_STAR):
                watch[b].append(b)
                for k in kids:
                    watch[k ^ 1].append(b)
        self.watch = watch
        self.marker_base = 2 * len(kinds)
        # Fulfilment marks: one bit per (star family, automaton state), so a
        # state's marks are one int.  refutes[c]: the accepting bits of the
        # families whose body code c refutes; steps[x]: (shift, select mask)
        # pairs that map a demand's marks back over an x-step.
        self.start_bit: dict[int, int] = {}
        self.refutes: dict[int, int] = defaultdict(int)
        selects = {x: defaultdict(int) for x in self.alphabet}
        width = 0
        for m in [m for m, k in enumerate(kinds) if k == _BOX_S]:
            accepting, size, rev = self._automaton(m)
            self.start_bit[m] = 1 << width
            code = args[m][0] << 1
            self.refutes[code] |= sum(1 << width + r for r in accepting)
            for x, preds in rev.items():
                for r2, sources in enumerate(preds):
                    for r1 in sources:
                        selects[x][r2 - r1] |= 1 << width + r2
            width += size
        self.steps = {x: tuple(sel.items()) for x, sel in selects.items()}
        self.refuting = mask_of(self.refutes)
        # ids: every mask a state was discovered under, unclosed or closed,
        # to its id, or to None if it clashes.  Per state id: the closed
        # mask, its entry once expanded (None before), the ids that step to
        # it, its alive bit and marks (as settled in the last pass that
        # reached it) and its Tarjan low link in the pass under way.
        # entry = ("or", successor ids followed) | ("sat", demand ids, their
        # program atoms, eventualities, the eventualities' start bits, the
        # bits the state refutes); both list the successors at index 1.
        # deferred[i]: the (mask, seed) of decomposition i's other
        # alternative, until it is released.
        self.ids: dict[int, "int | None"] = {}
        self.states: list[int] = []
        self.info: list = []
        self.parents: list[list[int]] = []
        self.alive = bytearray()
        self.marks: list[int] = []
        self.low: list[int] = []
        self.deferred: dict[int, tuple] = {}
        self.defer = False  # whether the pass under way defers alternatives
        self.order: list[int] = []   # expanded ids, in expansion order
        # The root demands closure member 0, the goal, true: code 1.
        self.root = self._discover(1 << 1, (1,))
        self.rounds: list[int] = []
        self.passes = 0

    def _discover(self, state: int, seed) -> "int | None":
        """The id of state closed from the codes of seed (see _close), or
        None on a clash.  Both masks map to it, so neither is closed again."""
        if state not in self.ids:
            closed = self._close(state, seed)
            if closed is not None and closed not in self.ids:
                self.ids[closed] = len(self.states)
                self.states.append(closed)
                self.info.append(None)
                self.parents.append([])
                self.alive.append(0)
                self.marks.append(0)
                self.low.append(_UNSEEN)
            self.ids[state] = None if closed is None else self.ids[closed]
        return self.ids[state]

    def _close(self, state: int, seed) -> "int | None":
        """state closed under the single-successor rules, or None on a clash.

        Only the rules that a code of seed takes part in are tried first,
        then those of each code added: state minus seed must already be
        closed.  The rules are Horn clauses over codes (a branch with one
        refuted kid forces the other), so the closure does not depend on
        the order they fire in."""
        plan, watch, base = self.plan, self.watch, self.marker_base
        cur = state
        work = list(seed)
        while work:
            c = work.pop()
            mode, kids = plan[c]
            if mode == _DET:
                for k in kids:
                    if not cur >> k & 1:
                        if cur >> (k ^ 1) & 1:
                            return None
                        cur |= 1 << k
                        work.append(k)
            for b in watch[c]:
                if not cur >> b & 1:
                    continue
                mode, (k0, k1) = plan[b]
                marker = 0
                if mode == _BRANCH_STAR:
                    marker = 1 << base + b
                    if cur & marker:
                        continue
                elif cur >> k0 & 1 or cur >> k1 & 1:
                    continue
                if cur >> (k0 ^ 1) & 1:
                    if cur >> (k1 ^ 1) & 1:
                        return None  # both sides clash
                    forced = k1
                elif cur >> (k1 ^ 1) & 1:
                    forced = k0
                else:
                    continue
                cur |= marker
                if not cur >> forced & 1:
                    cur |= 1 << forced
                    work.append(forced)
        return cur

    def _process(self, i: int) -> tuple:
        state = self.states[i]
        plan = self.plan
        base = self.marker_base
        # States are closed, and a closed state refutes neither kid of an
        # open branch; each alternative is closed from its one new member.
        # A clashing alternative is dropped, and the other is then the only
        # successor.  While passes defer, the second is only recorded.
        for c in bits_of(state & self.branches):
            mode, (k0, k1) = plan[c]
            if mode == _BRANCH_STAR:
                if state >> base + c & 1:
                    continue
                tagged = state | 1 << base + c
            elif state >> k0 & 1 or state >> k1 & 1:
                continue
            else:
                tagged = state
            first = self._discover(tagged | 1 << k0, (k0,))
            if first is not None and self.defer:
                self.deferred[i] = (tagged | 1 << k1, (k1,))
                return ("or", (first,))
            second = self._discover(tagged | 1 << k1, (k1,))
            return ("or", tuple(t for t in (first, second) if t is not None))
        # Saturated: collect modal obligations and star eventualities.  A
        # consistent state never holds both [x]B and ![x]B, so no demand
        # {C : [x]C in state} + {!B} clashes as it is built; one that
        # clashes once closed leaves the state dead, with no successor.
        args = self.args
        positives: dict[str, list[int]] = {}
        for c in bits_of(state & self.boxes_true):
            a, body = args[c >> 1]
            positives.setdefault(a, []).append(body)
        demands, letters, eventualities = [], [], []
        need = refute = 0
        for c in bits_of(state & self.modals_false):
            if self.kind[c >> 1] == _BOX_S:
                eventualities.append(c >> 1)
                need |= self.start_bit[c >> 1]
                continue
            a, body = args[c >> 1]
            seed = [b << 1 | 1 for b in positives.get(a, ())] + [body << 1]
            d = self._discover(mask_of(seed), seed)
            if d is None:
                return ("or", ())
            demands.append(d)
            letters.append(a)
        for c in bits_of(state & self.refuting):
            refute |= self.refutes[c]
        return ("sat", demands, letters, eventualities, need, refute)

    def build(self) -> bytearray:
        """Search in passes (`_search`) and return the alive set that
        decided: that of the first pass after which the root is alive, or
        whose subgraph holds no deferred alternative.  Between passes the
        alternatives of the dead decompositions the pass reached are
        released, or every deferred one if none of those died or if the
        next pass is pass `PASSES`.  Each pass searches the cached graph
        from the root with every low link reset, so it settles every
        state it reaches; the bits of states it does not reach are stale
        and never read.  A goal that clashes runs no pass."""
        info, parents, alive, low, deferred = (
            self.info, self.parents, self.alive, self.low, self.deferred)
        while self.root is not None:
            self.passes += 1
            self.defer = self.passes < PASSES
            low[:] = [_UNSEEN] * len(low)
            self._search()
            reached = [i for i in deferred if low[i] == _SETTLED]
            if alive[self.root] or not reached:
                return alive
            release = list(deferred)
            if self.passes + 1 < PASSES:
                release = [i for i in reached if not alive[i]] or release
            for i in release:
                t = self._discover(*deferred.pop(i))
                if t is not None:
                    info[i] = ("or", info[i][1] + (t,))
                    parents[t].append(i)
        return alive

    def _search(self) -> None:
        """One pass: Tarjan's search from the root over the successors
        followed, expanding states depth first, first branch first, and
        settling each strongly connected component when it closes.  A
        state is expanded the first time a pass visits it; the states the
        pass never visits count as dead."""
        info, low, parents = self.info, self.low, self.parents
        open_: list[int] = []  # visited and not yet settled
        frames: list[tuple] = []  # (state id, its targets left, its slot)
        i = self.root
        while True:
            if i is not None:  # visit i and push it
                entry = info[i]
                if entry is None:
                    entry = info[i] = self._process(i)
                    self.order.append(i)
                    for t in entry[1]:
                        parents[t].append(i)
                low[i] = len(open_)
                frames.append((i, iter(entry[1]), len(open_)))
                open_.append(i)
            i, targets, slot = frames[-1]
            for t in targets:
                if low[t] == _UNSEEN:
                    i = t
                    break
                if low[t] < low[i]:
                    low[i] = low[t]
            else:
                frames.pop()
                if low[i] == slot:  # i roots the component open_[slot:]
                    part = open_[slot:]
                    del open_[slot:]
                    self._settle(part, slot)
                    for u in part:
                        low[u] = _SETTLED
                if not frames:
                    return
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[i])
                i = None

    def _gather(self, u: int) -> int:
        """Marks of alive state u from its successors' marks: their union
        at a decomposition; at a saturated state, the bits it refutes and
        each demand's marks mapped back over its letter."""
        entry, marks = self.info[u], self.marks
        if entry[0] == "or":
            m = 0
            for t in entry[1]:
                m |= marks[t]
            return m
        m = entry[5]
        for d, x in zip(entry[1], entry[2]):
            md = marks[d]
            if md:
                for shift, select in self.steps[x]:
                    bits = md & select
                    if bits:
                        m |= bits >> shift if shift >= 0 else bits << -shift
        return m

    def _settle(self, part: list, floor: int) -> None:
        """Alive bits and marks of the states of part, from those of the
        states it reaches outside it, all settled in this pass.  A parent p
        of a state of part is in part iff low[p] >= floor.  States with a
        failed obligation are deleted, then saturated states with an
        unfulfilled eventuality, to a fixpoint; each marking round that
        deletes states adds part's live count to `rounds`."""
        info, alive, marks, low, parents = (
            self.info, self.alive, self.marks, self.low, self.parents)
        u = part[0]
        entry = info[u]
        if len(part) == 1 and u not in entry[1]:
            # Not its own successor: a decomposition grows the state, but a
            # demand can close to the saturated state that spawned it.
            if entry[0] == "or":
                ok = any(alive[t] for t in entry[1])
            else:
                ok = all(alive[d] for d in entry[1])
            m = self._gather(u) if ok else 0
            if ok and entry[0] == "sat" and entry[4] & ~m:
                ok, m = False, 0
                self.rounds.append(1)
            alive[u], marks[u] = ok, m
            return
        for u in part:
            alive[u] = 1
        work = list(part)
        while True:
            while work:  # obligations
                u = work.pop()
                entry = info[u]
                if alive[u] and (
                        not any(alive[t] for t in entry[1]) if entry[0] == "or"
                        else not all(alive[d] for d in entry[1])):
                    alive[u] = 0
                    work.extend(p for p in parents[u] if low[p] >= floor)
            for u in part:
                marks[u] = 0
            work = [u for u in part if alive[u]]
            live = len(work)
            while work:  # marks, spread to a least fixpoint
                u = work.pop()
                m = self._gather(u)
                if m != marks[u]:
                    marks[u] = m
                    work.extend(p for p in parents[u] if alive[p] and low[p] >= floor)
            doomed = [u for u in part if alive[u] and info[u][0] == "sat"
                      and info[u][4] & ~marks[u]]
            if not doomed:
                return
            self.rounds.append(live)
            for u in doomed:
                alive[u] = 0
                work.extend(p for p in parents[u] if low[p] >= floor)

    def _automaton(self, member: int) -> tuple:
        """Word automaton of a starred box member [P*]B, read off the node
        table: accepting state indices, number of states, and reversed
        transitions by letter as one list of predecessor indices per state
        index.  State 0, the member itself, is the start.

        The states are the member itself and the body D of every atomic box
        [x]D its unfolding reaches.  From a state, composition boxes unfold
        and starred boxes step to both kids without reading a letter; each
        atomic box [x]D reached is an x-transition to D, and the state
        accepts if the walk reaches B."""
        kinds, args = self.kind, self.args
        body = args[member][0]
        states = [member]
        pos = {member: 0}
        accepting = []
        rev: dict = {x: [[]] for x in self.alphabet}
        for i, s in enumerate(states):  # grows while it is read
            seen = {s}
            work = [s]
            while work:
                g = work.pop()
                k = kinds[g]
                if g == body:
                    accepting.append(i)
                elif k == _BOX_A:
                    x, d = args[g]
                    if d not in pos:
                        pos[d] = len(states)
                        states.append(d)
                        for preds in rev.values():
                            preds.append([])
                    rev[x][pos[d]].append(i)
                else:  # _BOX_C or _BOX_S: no letter read
                    for h in (args[g],) if k == _BOX_C else args[g]:
                        if h not in seen:
                            seen.add(h)
                            work.append(h)
        return tuple(accepting), len(states), rev

    def _witness(self, node: int, member: int) -> list:
        """A shortest path that fulfils eventuality member of saturated
        state node, as (letter, saturated state) hops, read off the settled
        marks.  The search visits only (state, mark bit) pairs whose bit is
        set: a decomposition keeps the bit, a modal step moves it along an
        automaton transition, and a saturated state that refutes the body
        at an accepting bit ends the path.  Marks are least fixpoints, so
        every marked pair leads to such an end, and dead or unexpanded
        states, whose marks are 0, are never entered."""
        info, marks = self.info, self.marks
        # came[pair]: the letter of the last modal step on the way to pair
        # and the saturated pair it left, so the path reads back hop by hop.
        here = (node, self.start_bit[member])
        came: dict = {here: None}
        queue = deque([here])
        while queue:
            here = u, b = queue.popleft()
            entry = info[u]
            if entry[0] == "or":
                moves = [(came[here], t, b) for t in entry[1] if marks[t] & b]
            elif b & entry[5]:
                break
            else:
                moves = []
                for d, x in zip(entry[1], entry[2]):
                    for shift, select in self.steps[x]:
                        nb = b << shift if shift >= 0 else b >> -shift
                        if nb & select & marks[d]:
                            moves.append(((x, here), d, nb))
            for via, t, nb in moves:
                if (t, nb) not in came:
                    came[t, nb] = via
                    queue.append((t, nb))
        else:  # the marks promised a path, so they are no least fixpoint
            raise CertificationError(f"no fulfilment path from state {node}")
        hops = []
        while came[here] is not None:
            x, prev = came[here]
            hops.append((x, here[0]))
            here = prev
        return hops[::-1]

    def _saturation(self, i: int, alive: bytearray) -> int:
        """The alive saturated state reached from alive state i by taking
        the first alive successor at each decomposition.  The graph only
        grows states, so it is acyclic, and after settlement every alive
        decomposition state has an alive successor."""
        while self.info[i][0] != "sat":
            i = next(t for t in self.info[i][1] if alive[t])
        return i

    def extract(self, alive: bytearray) -> PdlModel:
        """Minimal model whose world 0 satisfies the goal: one witness per
        modal obligation plus the saturated states along a shortest
        fulfilment path per eventuality (`_witness`), instead of
        everything reachable."""
        designated = self._saturation(self.root, alive)
        order = [designated]
        index = {designated: 0}
        queue = deque([designated])
        edges: dict[str, set[tuple[int, int]]] = {a: set() for a in self.alphabet}

        def world_of(node: int) -> int:
            w = index.get(node)
            if w is None:
                w = index[node] = len(order)
                order.append(node)
                queue.append(node)
            return w

        while queue:
            node = queue.popleft()
            w = index[node]
            _, demands, letters, eventualities = self.info[node][:4]
            for demand, a in zip(demands, letters):
                target = self._saturation(demand, alive)
                edges[a].add((w, world_of(target)))
            for m in eventualities:
                last_w = w
                for x, target in self._witness(node, m):
                    v = world_of(target)
                    edges[x].add((last_w, v))
                    last_w = v
        n = len(order)
        val: dict[str, int] = {}
        for w, node in enumerate(order):
            for code in bits_of(self.states[node] & self.atoms_true):
                name = self.args[code >> 1]
                val[name] = val.get(name, 0) | 1 << w
        rho = {a: Relation.from_pairs(n, sorted(ps)) for a, ps in edges.items()}
        return PdlModel(n, rho, val)


def pdl_satisfiable(f: PdlFormula, stats: "dict | None" = None):
    """Model and world satisfying f, or None.  The returned model is always
    re-checked with the independent evaluator.

    `stats`, when given, receives `nodes` (distinct states expanded over
    all passes), `passes`, `closure` (closure members) and `rounds`: for
    each settlement step that deleted states for an unfulfilled
    eventuality, in search order, the number of states of the settled part
    alive before it.  `nodes` and `passes` are 0 when the goal clashes."""
    engine = _Tableau(f)
    alive = engine.build()
    if stats is not None:
        stats["nodes"] = len(engine.order)
        stats["passes"] = engine.passes
        stats["rounds"] = engine.rounds
        stats["closure"] = len(engine.closure)
    if engine.root is None or not alive[engine.root]:
        return None
    model = engine.extract(alive)
    if not pdl_satisfies(model, 0, f):
        raise CertificationError(
            f"extracted model does not satisfy {render(f)!r}")
    return model, 0


# ---------------------------------------------------------------------------
# Verdicts and the logic table


@dataclass
class Verdict:
    """A validity answer.  An Invalid one carries a countermodel and the
    world where the formula fails; `decide` returns none uncertified."""

    valid: bool
    model: "BiModel | PdlModel | None" = None
    world: "int | None" = None

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
    return Verdict(False, *found)


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
                 lambda m, w, f: (ck_model_to_cs4(m), 2 * w)),
    "ws4": Logic("wk_star", FragmentTag.L, True, "ws4",
                 lambda f: kappa(f),
                 lambda m, w, f: (ck_model_to_cs4(m), 2 * w)),
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
    time and certified once per map into a constructive model class: the
    model must meet that class's conditions and falsify the source."""
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
    if not row.classical:
        violations = validate(model, row.kind)
        if violations:
            raise CertificationError(
                f"{row.kind} countermodel violates {violations[0].condition}")
        if satisfies(model, world, f):
            raise CertificationError(
                f"{row.kind} countermodel fails to falsify the source formula")
    return Verdict(False, model, world)
