"""Test-free PDL satisfiability and the logic table that decides validity.

`fl_closure` is the one place that knows how a PDL formula decomposes:
its breadth-first pass builds the node table (each closure member's kind
and arguments, see `ClosureSet`) that model extraction reads.  The
tableau's set-up walks the signed codes the goal reaches from that
table, and plans each code as it reaches it: no other code gets a plan
entry.  The table also yields the word automaton of each star
eventuality the goal reaches false: `[P*]B` unfolds through composition
and starred boxes to atomic boxes, whose letters spell out the words of
`P*` (Fischer and Ladner), so programs are decomposed nowhere else.  A
program atom x that occurs in the goal only as `x*` can be read as a
preorder, so `[x*]B` is no eventuality but a preorder box: true, its
body holds and every x-demand carries it; false, its body fails here or
its obligation `![x]B` is planted (the S4 rules).  Where a star
eventuality's automaton walks through the false box, the obligation is
an alternative even when the body already fails, since the eventuality's
path may need that step.

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
as dead.  A saturated state needs every demand alive, so once one of them
is settled dead the pass follows none of the rest: a settled state's
alive bit and marks are final for the pass, and a dead one gives its
parents nothing, so no other visited state's bit or marks depend on the
demands skipped.  The surviving set only grows with the graph, so a root
alive after a pass is alive in the whole graph: the search stops there
and extracts its model, whose eventuality witnesses are shortest paths
through the (state, mark bit) pairs set in the marks; a pass ends as
soon as the root is known alive (`_root_chain`).  Otherwise the next
pass releases the other alternatives of the dead decompositions the pass
reached, or every deferred one if none of them died, and searches the
cached graph from the root again: no state is expanded twice, and every
state the pass reaches is settled anew.  A dead root whose subgraph
holds no deferred alternative is dead in the whole graph.  Pass `PASSES`
releases everything, so the answer stays exact.  When the goal reaches
a false preorder box and pass 1 leaves the root dead, the goal is first
decided on a twin (`_twin`): a graph over the same tables in which a
false preorder box only plants its obligation, exact too with x a
preorder, far smaller, and searched in passes of its own.  A dead twin
root makes the goal unsatisfiable, so a Valid goal costs pass 1 and at
most `PASSES` twin passes.  A live one sends it on to passes 2 to
`PASSES` of the main graph, whose models are smaller, under a state
limit: as many new states as the two graphs expanded before them.  Past
it the main search stops and extraction reads the twin.
A state is one int bit mask, closed from the codes its discovery added
(a worklist and per-code watch lists) before it gets a dense integer id.  A clash gets no id: a
clashing alternative is dropped, a clashing demand kills its saturated
state, and a clashing goal is unsatisfiable.  An expanded state's entry
is all that the search reads of it: a decomposition's successor ids, or
a saturated state's demand ids, their letters, its eventualities and its
need and refute mark bits.
The tests pin the alive sets and marks to a global elimination with its
own marking (`tests/elimination.py`), and the verdicts to an exhaustive
type-elimination engine (`tests/exhaustive.py`).

`LOGIC_TABLE` has one row per logic: its input language, its
countermodel class, its parent logic, the formula map into the parent
and the model map back.  The rows form the paper's chain of reductions:
`pdl` is the root, `k_star` and `wk_star` (by `tau`) sit on it,
`ck_star` (by `omega`), `ck_star_box` (identity) and `ws4` (by `kappa`)
on `wk_star`, and `cs4` (by `kappa`) on `ck_star`.  `decide` checks the
input, decides the mapped formula in the parent, and maps a countermodel
back.  `pdl_satisfiable` checks its PDL model with the independent
evaluator.  After each model map into a constructive class, one
`satisfies` call certifies the model: it checks the model against the
class the model declares, which must be the row's, and evaluates the
source formula.  The maps trust their input, which the layer below
certified.  The oracle and the CLI read the same table.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable

from . import relmodel
from .relmodel import MODEL_CLASSES, BiModel, PdlModel, Relation, bits_of, mask_of
from .semantics import InvalidModelError, pdl_satisfies, satisfies
from .syntax import (
    And,
    Atom,
    BoxP,
    Comp,
    FragmentError,
    FragmentTag,
    Neg,
    Or,
    PAtom,
    PdlFormula,
    P_BOT,
    Star,
    census,
    check_fragment,
    depth_error,
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


# Node kinds of closure members.  _BOX_P is [x*]B for a program atom x
# that occurs in the goal only as x*: the goal is satisfiable iff it is
# satisfiable with x a preorder, where [x*]B is [x]B, so the box is read
# as an S4 box (reflexive, inherited along x) with no star eventuality.
_ATOM, _NEG, _AND, _OR, _BOX_A, _BOX_C, _BOX_S, _BOX_P = range(8)


@dataclass(frozen=True)
class ClosureSet:
    """Closure members in breadth-first order, with each member's node kind
    and arguments: an atom's name, a negation's body index, a connective's
    (left, right) indices, an atomic box's (program atom, body index), a
    composition box's unfolding index, a starred box's (body index,
    unfolding index), and a preorder box [x*]B's (body index, index of the
    atomic box [x]B).  alphabet: the goal's program atoms (`census`), which
    are the program atoms of the members' atomic boxes."""

    formulas: tuple[PdlFormula, ...]
    index: dict
    kind: tuple[int, ...]
    args: tuple
    alphabet: list[str]

    def __len__(self) -> int:
        return len(self.formulas)


def fl_closure(f: PdlFormula) -> ClosureSet:
    """Least superset of {f} closed under subformulas and program unfolding:
    a composition box unfolds to nested boxes, a starred box to its body and
    its one-step unfolding.  A preorder box [x*]B, for a program atom x
    that occurs in f only as x*, steps to its body and [x]B instead.
    Members are numbered the first time they are seen, breadth first from
    f; the numbering orders the tableau's codes, and so its branches.  One
    `census` of f gives the preorder atoms and the alphabet."""
    _, bare, starred = census(f)
    preorders = starred - bare
    order: list[PdlFormula] = [f]
    index: dict[PdlFormula, int] = {f: 0}
    kinds: list[int] = []
    args: list = []

    def number(g: PdlFormula) -> int:
        i = index.setdefault(g, len(order))
        if i == len(order):
            order.append(g)
        return i

    for g in order:  # grows while it is read: the breadth-first queue
        t = type(g)
        if t is BoxP:
            prog, body = g.prog, g.body
            t = type(prog)
            if t is PAtom:
                kinds.append(_BOX_A)
                args.append((prog.name, number(body)))
            elif t is Comp:
                kinds.append(_BOX_C)
                args.append(number(BoxP(prog.left, BoxP(prog.right, body))))
            elif t is not Star:
                raise TypeError(f"unknown program node {t.__name__}")
            elif type(prog.body) is PAtom and prog.body.name in preorders:
                kinds.append(_BOX_P)
                args.append((number(body), number(BoxP(prog.body, body))))
            else:
                kinds.append(_BOX_S)
                args.append((number(body), number(BoxP(prog.body, g))))
        elif t is Neg:
            kinds.append(_NEG)
            args.append(number(g.body))
        elif t is And or t is Or:
            kinds.append(_AND if t is And else _OR)
            args.append((number(g.left), number(g.right)))
        elif t is Atom:
            kinds.append(_ATOM)
            args.append(g.name)
        else:
            raise TypeError(f"not a PDL formula: {t.__name__}")
    return ClosureSet(tuple(order), index, tuple(kinds), tuple(args),
                      sorted(bare | starred))


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
# A negated starred box, and a negated preorder box that a starred box's
# automaton walks through, must keep its deferral branch available even
# when the fulfilling branch's demand is already present: the deferral is
# what plants the modal obligation a fulfillment path runs along.  Those
# members therefore branch under a decision marker (a code above the real
# range) instead of the presence short-circuit, which stays sound for the
# truth-functional connectives and the other preorder boxes.


class _Tableau:
    def __init__(self, goal: PdlFormula):
        self.closure = fl_closure(goal)
        kinds = self.kind = self.closure.kind
        args = self.args = self.closure.args
        # One walk over the signed codes the goal reaches from its code 1
        # (Smullyan's signed formulas); no state holds another.  A code
        # reaches its kids, which keep its sign except under a negation.  It
        # adds its one kid, or both kids of a false | and of a true & or
        # starred box (body here and after one program step); the rest branch.
        # A true preorder box adds only its body.  A false one is met once its
        # body fails here, so it branches as a connective, unless an automaton
        # below walks through it.  A literal adds no kid: an atomic box's body
        # is the code a true box carries to each demand, and the one a false
        # box's demand starts from.  Per code: its plan entry (a literal, an
        # add-all or a branch, with its kids), its bit in the code masks that
        # _process and extract read, and its watch entries.  watch[c]: the
        # branch codes whose unit rule can fire once c is present, namely c
        # itself and those with a kid that c refutes.  carries[c]: the program
        # atom x of true box c and the code that each x-demand gets from it:
        # [x]B gives B, and [x*]B itself.
        plan = self.plan = [None] * (2 * len(kinds))
        watch = self.watch = [[] for _ in plan]
        carries = self.carries = {}
        starred: list[int] = []  # the star members reached false
        preorders = self.preorders = []  # the false preorder box codes
        branches = modals_false = atoms_true = 0
        codes, reached = [1], bytearray(len(plan))
        reached[1] = 1
        for c in codes:  # grows while it is read
            k, a, true = kinds[c >> 1], args[c >> 1], c & 1
            mode = _DET
            if k == _ATOM:
                mode, kids = _LIT, ()
                atoms_true |= true << c
            elif k == _BOX_A:
                mode, kids = _LIT, (a[1] << 1 | true,)
                if true:
                    carries[c] = (a[0], kids[0])
                else:
                    modals_false |= 1 << c
            elif k == _NEG:
                kids = (a << 1 | true ^ 1,)
            elif k == _BOX_C:
                kids = (a << 1 | true,)
            elif k == _BOX_P and true:
                kids = (a[0] << 1 | 1,)
                carries[c] = (args[a[1]][0], c)
            else:
                kids = (a[0] << 1 | true, a[1] << 1 | true)
                if (k == _OR) == true:
                    mode = _BRANCH_STAR if k == _BOX_S else _BRANCH
                if k == _BOX_P:
                    preorders.append(c)
                elif k == _BOX_S and not true:
                    modals_false |= 1 << c
                    starred.append(c >> 1)
            plan[c] = (mode, kids)
            if mode >= _BRANCH:
                branches |= 1 << c
                for w in (c, kids[0] ^ 1, kids[1] ^ 1):
                    watch[w].append(c)
            for d in kids:
                if not reached[d]:
                    reached[d] = 1
                    codes.append(d)
        self.branches, self.modals_false, self.atoms_true = (
            branches, modals_false, atoms_true)
        self.boxes_true = mask_of(carries)
        # Every atomic box's letter, reached or not: models interpret them all.
        self.alphabet = self.closure.alphabet
        # Fulfilment marks: one bit per (star family, automaton state), so a
        # state's marks are one int.  refutes[c]: the accepting bits of the
        # families whose body code c refutes; steps[x]: (shift, select mask)
        # pairs that map a demand's marks back over an x-step.
        self.start_bit: dict[int, int] = {}
        self.refutes: dict[int, int] = defaultdict(int)
        selects = {x: defaultdict(int) for x in self.alphabet}
        width = 0
        for m in sorted(starred):  # in member order
            accepting, states, moves = self._automaton(m)
            self.start_bit[m] = 1 << width
            self.refutes[args[m][0] << 1] |= sum(1 << width + r for r in accepting)
            for x, r1, r2 in moves:
                selects[x][r2 - r1] |= 1 << width + r2
            for s in states:
                if kinds[s] == _BOX_P:
                    plan[s << 1] = (_BRANCH_STAR, plan[s << 1][1])
            width += len(states)
        self.steps = {x: tuple(sel.items()) for x, sel in selects.items()}
        self.refuting = mask_of(self.refutes)
        self.marker_base = 2 * len(kinds)
        self.twin: "_Tableau | None" = None
        self._start()

    def _start(self) -> None:
        """An empty graph holding only the root."""
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
        self.rounds: list[int] = []
        self.passes = 0
        self.limit = float("inf")  # the states `order` may hold
        # The root demands closure member 0, the goal, true: code 1.
        self.root = self._discover(1 << 1, (1,))

    def _twin(self) -> "_Tableau":
        """A second graph over the same closure and tables, in which a
        false preorder box [x*]B never branches but plants its obligation
        ![x]B, searched in passes (`build`) as the main graph is.  No
        preorder box branches in it, so it has no twin of its own.  Exact,
        since x occurs only as x*: the goal is satisfiable iff it is with x
        a preorder, where [x*]B is [x]B.  Its models are larger, so they
        are read only once the main graph reaches its state limit."""
        twin = copy.copy(self)
        plan = twin.plan = list(self.plan)
        watch = twin.watch = list(self.watch)
        for c in self.preorders:
            kids = plan[c][1]
            plan[c] = (_DET, kids[1:])
            for w in (c, *(kid ^ 1 for kid in kids)):
                watch[w] = [b for b in watch[w] if b != c]
        twin.branches = self.branches & ~mask_of(self.preorders)
        twin.preorders = []
        twin._start()
        twin.build()
        return twin

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
        # successor.  While passes defer, the second is only recorded.  The
        # branches are walked lowest code first, up to the first open one.
        branches = state & self.branches
        while branches:
            low = branches & -branches
            branches ^= low
            c = low.bit_length() - 1
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
        # Saturated: collect modal obligations and star eventualities.  The
        # demand of ![x]B is {C : [x]C in state} + {[x*]C : [x*]C in state,
        # a preorder box} + {!B}.  It clashes as it is built only if B is
        # one of those [x*]C; one that clashes, then or once closed, leaves
        # the state dead, with no successor.
        args, carries = self.args, self.carries
        positives: dict[str, list[int]] = {}
        for c in bits_of(state & self.boxes_true):
            a, carried = carries[c]
            positives.setdefault(a, []).append(carried)
        demands, letters, eventualities = [], [], []
        need = refute = 0
        for c in bits_of(state & self.modals_false):
            if self.kind[c >> 1] == _BOX_S:
                eventualities.append(c >> 1)
                need |= self.start_bit[c >> 1]
                continue
            a, body = args[c >> 1]
            seed = positives.get(a, []) + [body << 1]
            mask = mask_of(seed)
            d = None if mask >> (body << 1 | 1) & 1 else self._discover(mask, seed)
            if d is None:
                return ("or", ())
            demands.append(d)
            letters.append(a)
        for c in bits_of(state & self.refuting):
            refute |= self.refutes[c]
        return ("sat", demands, letters, eventualities, need, refute)

    def build(self) -> "_Tableau":
        """Search in passes (`_search`) and return the graph whose alive
        set decided: this one after the first pass that leaves the root
        alive or whose subgraph holds no deferred alternative, or the twin
        (`_twin`), built when pass 1 leaves the root dead, if it refutes
        the goal or if passes 2 to `PASSES` reach their state `limit`.  A
        live twin sets it: these passes may expand as many new states as
        this graph and the twin expanded before them.  Between passes the
        alternatives of the dead decompositions the pass reached are
        released, or every deferred one if none of those died or if the
        next pass is pass `PASSES`.  Each pass searches the cached graph
        from the root with every low link reset, so it settles every state
        it reaches; the bits of states it does not reach are stale and
        never read.  A goal that clashes runs no pass."""
        info, parents, alive, low, deferred = (
            self.info, self.parents, self.alive, self.low, self.deferred)
        while self.root is not None:
            self.passes += 1
            self.defer = self.passes < PASSES
            low[:] = [_UNSEEN] * len(low)
            if self._search():
                return self.twin
            reached = [i for i in deferred if low[i] == _SETTLED]
            if alive[self.root] or not reached:
                return self
            if self.passes == 1 and self.preorders:
                twin = self.twin = self._twin()
                if twin.root is None or not twin.alive[twin.root]:
                    return twin
                self.limit = 2 * len(self.order) + len(twin.order)
            release = list(deferred)
            if self.passes + 1 < PASSES:
                release = [i for i in reached if not alive[i]] or release
            for i in release:
                t = self._discover(*deferred.pop(i))
                if t is not None:
                    info[i] = ("or", info[i][1] + (t,))
                    parents[t].append(i)
        return self

    def _search(self) -> bool:
        """One pass: Tarjan's search from the root over the successors
        followed, expanding states depth first, first branch first, and
        settling each strongly connected component when it closes.  A
        state is expanded the first time a pass visits it; the states the
        pass never visits count as dead.  Returns whether the pass stopped
        at the state `limit`, with the bits it left stale.

        A saturated state follows none of its demands if one is settled
        dead when it is pushed, and no more of them once one it meets or
        returns from is.  It is dead then whatever the others hold, and
        `_settle` finds that from the dead demand: its check of the
        demands stops there, and only alive states gather marks.  The stop
        rule of `build` still holds: the cut edges leave dead states only.
        The pass ends early once `_root_chain` finds the root alive."""
        info, low, parents, alive = self.info, self.low, self.parents, self.alive
        open_: list[int] = []  # visited and not yet settled
        # (state id, its targets left, its slot, whether it is saturated)
        frames: list[tuple] = []
        i = self.root
        while True:
            if i is not None:  # visit i and push it
                entry = info[i]
                if entry is None:
                    if len(self.order) >= self.limit:
                        return True
                    entry = info[i] = self._process(i)
                    self.order.append(i)
                    for t in entry[1]:
                        parents[t].append(i)
                targets = entry[1]
                sat = entry[0] == "sat"
                if sat:
                    for t in targets:
                        if low[t] == _SETTLED and not alive[t]:
                            targets = ()
                            break
                low[i] = len(open_)
                frames.append((i, iter(targets), len(open_), sat))
                open_.append(i)
            u, targets, slot, sat = frames[-1]
            i = None
            for t in targets:
                if low[t] == _UNSEEN:
                    i = t
                    break
                if low[t] == _SETTLED:
                    if sat and not alive[t]:
                        break  # a dead demand: u is dead, follow no more
                elif low[t] < low[u]:
                    low[u] = low[t]
            if i is not None:
                continue
            frames.pop()
            if low[u] == slot:  # u roots the component open_[slot:]
                part = open_[slot:]
                del open_[slot:]
                self._settle(part, slot)
                for v in part:
                    low[v] = _SETTLED
                if alive[u] and self._root_chain(frames, open_):
                    return False
            if not frames:
                return False
            parent, _, pslot, psat = frames[-1]
            if low[u] != _SETTLED:
                low[parent] = min(low[parent], low[u])
            elif psat and not alive[u]:
                frames[-1] = (parent, iter(()), pslot, psat)

    def _root_chain(self, frames: list, open_: list) -> bool:
        """Whether the root is alive, asked as a component settles alive
        above the frames: it is if the open states are the frames alone
        (each low link then equals its slot), each a decomposition, since
        each steps to the next and the last to that component.  Marks them
        alive and settled; no settled state reaches them, and what they
        followed before the next frame is settled, as extraction needs.
        The walk stops at the first saturated frame from the top."""
        if len(open_) != len(frames) or any(f[3] for f in reversed(frames)):
            return False
        for v, *_ in frames:
            self.alive[v] = 1
            self.low[v] = _SETTLED
        return True

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

    def _lives(self, entry: tuple) -> bool:
        """Whether an expanded state keeps its obligations, from its
        successors' alive bits: a decomposition needs one alive successor,
        a saturated state every demand alive.  Loops, not any()/all(): no
        generator object per state."""
        alive = self.alive
        if entry[0] == "or":
            for t in entry[1]:
                if alive[t]:
                    return True
            return False
        for d in entry[1]:
            if not alive[d]:
                return False
        return True

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
            ok = self._lives(entry)
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
                if alive[u] and not self._lives(info[u]):
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
        table: accepting state indices, the states (closure indices), and
        the transitions as one list of (letter, from index, to index)
        triples, in the order the walk finds them.  State 0, the member
        itself, is the start.

        The states are the member itself, the body D of every atomic box
        [x]D its unfolding reaches and every preorder box [x*]D it reaches.
        From a state, composition boxes unfold and starred boxes step to
        both kids without reading a letter; each atomic box [x]D reached is
        an x-transition to D, each preorder box [x*]D reached is an
        x-transition to the state [x*]D and steps to D without reading a
        letter, and the state accepts if the walk reaches B."""
        kinds, args = self.kind, self.args
        body = args[member][0]
        states = [member]
        pos = {member: 0}
        accepting, moves = [], []
        for i, s in enumerate(states):  # grows while it is read
            seen = {s}
            work = [s]
            while work:
                g = work.pop()
                k = kinds[g]
                if g == body:
                    accepting.append(i)
                    continue
                if k == _BOX_A or k == _BOX_P:
                    x, d = args[g] if k == _BOX_A else (args[args[g][1]][0], g)
                    if d not in pos:
                        pos[d] = len(states)
                        states.append(d)
                    moves.append((x, i, pos[d]))
                if k != _BOX_A:  # the moves that read no letter
                    for h in ((args[g],) if k == _BOX_C else
                              args[g] if k == _BOX_S else args[g][:1]):
                        if h not in seen:
                            seen.add(h)
                            work.append(h)
        return tuple(accepting), states, moves

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

    def _saturation(self, i: int) -> int:
        """The alive saturated state reached from alive state i by taking
        the first alive successor at each decomposition.  The graph only
        grows states, so it is acyclic, and after settlement every alive
        decomposition state has an alive successor."""
        while self.info[i][0] != "sat":
            i = next(t for t in self.info[i][1] if self.alive[t])
        return i

    def extract(self) -> PdlModel:
        """Minimal model whose world 0 satisfies the goal: one witness per
        modal obligation plus the saturated states along a shortest
        fulfilment path per eventuality (`_witness`), instead of
        everything reachable."""
        designated = self._saturation(self.root)
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
                target = self._saturation(demand)
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
        rho = {a: Relation.from_pairs(n, ps) for a, ps in edges.items()}
        return PdlModel(n, rho, val)


def pdl_satisfiable(f: PdlFormula, stats: "dict | None" = None):
    """Model and world satisfying f, or None.  The returned model is always
    re-checked with the independent evaluator.

    `stats`, when given, receives `nodes` (distinct states expanded over
    all passes, the twin's included), `passes` (the twin's included, and
    one the main graph's state limit stopped), `closure` (closure members)
    and `rounds`: for each settlement step that deleted states for an
    unfulfilled eventuality, in search order, the number of states of the
    settled part alive before it, the twin's after the main graph's.
    `nodes` and `passes` are 0 when the goal clashes.  Once the limit
    stops the main graph, the model is the twin's."""
    engine = _Tableau(f)
    graph = engine.build()
    if stats is not None:
        graphs = [engine] if engine.twin is None else [engine, engine.twin]
        stats["nodes"] = sum(len(g.order) for g in graphs)
        stats["passes"] = sum(g.passes for g in graphs)
        stats["rounds"] = [r for g in graphs for r in g.rounds]
        stats["closure"] = len(engine.closure)
    if graph.root is None or not graph.alive[graph.root]:
        return None
    model = graph.extract()
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
        # Looked up in `relmodel` when called, as the logic table's lambdas
        # look up the maps, so a wrapper set there (the tracer's) sees it.
        return {"verdict": "invalid", "world": self.world,
                "model": relmodel.model_to_obj(self.model)}


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
    language: "FragmentTag | None"  # check_fragment's tag; None: all PDL
    kind: str                       # a BiModel kind, "k" or "pdl"
    down: "Callable | None" = None
    back: "Callable | None" = None

    @property
    def classical(self) -> bool:
        """Input is PDL syntax and countermodels are `PdlModel`s."""
        return self.kind not in MODEL_CLASSES


LOGIC_TABLE = {
    "ck_star": Logic("wk_star", FragmentTag.LSTAR, "ck",
                     lambda f: omega(f),
                     lambda m, w, f: (wk_model_to_ck(m, f), w)),
    "wk_star": Logic("pdl", FragmentTag.LSTAR, "wk",
                     lambda f: tau(f),
                     lambda m, w, f: (pdl_model_to_wk(_ensure_rho(m, ("i", "m"))), w)),
    # Diamond-free validity does not depend on fallibility, so the
    # infallible countermodel is already a constructive one.
    "ck_star_box": Logic("wk_star", FragmentTag.LSTAR_BOX, "ck"),
    # World w of the parent countermodel is world 2w (its first copy) of
    # the doubled bi-preorder.
    "cs4": Logic("ck_star", FragmentTag.L, "cs4",
                 lambda f: kappa(f),
                 lambda m, w, f: (ck_model_to_cs4(m), 2 * w)),
    "ws4": Logic("wk_star", FragmentTag.L, "ws4",
                 lambda f: kappa(f),
                 lambda m, w, f: (ck_model_to_cs4(m), 2 * w)),
    "k_star": Logic("pdl", FragmentTag.LK_STAR, "k",
                    back=lambda m, w, f: (_ensure_rho(m, ("a",)), w)),
    "pdl": Logic(None, None, "pdl"),
}
LOGICS = tuple(LOGIC_TABLE)


def check_input(logic: str, f) -> "tuple[Logic, tuple[str, ...]]":
    """The table row of `logic` and f's atom names (`variables(f)`), after
    checking that f is in its input language: ValueError for an unknown
    logic, FragmentError for f.  First f must have at most MAX_DEPTH levels
    and MAX_NODES node occurrences (`depth_error`), so later walks are
    bounded.  Then each node must sit where the language admits it, with
    string leaf names.  Logics with fallible countermodels (kind ck or cs4)
    refuse the atom p_bot: `omega` carries the fallible worlds into the
    infallible logics as that atom.  The parsers read p_bot as an atom."""
    row = LOGIC_TABLE.get(logic)
    if row is None:
        raise ValueError(f"unknown logic {logic!r}")
    if (error := depth_error(f)) is not None:
        raise FragmentError(error)
    if not check_fragment(f, row.language):
        raise FragmentError(f"formula is not in the input language of {logic}")
    atoms = tuple(variables(f))
    if P_BOT in atoms and not row.classical and MODEL_CLASSES[row.kind].fallible:
        raise FragmentError(
            f"atom {P_BOT!r} is reserved and not in the language of {logic}")
    return row, atoms


def decide(logic: str, f) -> Verdict:
    """Validity in the named logic, decided in its parent logic down to
    PDL.  An Invalid verdict's countermodel is mapped back one row at a
    time and certified once per map into a constructive model class: the
    model must carry that class's label, meet its conditions and falsify
    the source."""
    return _decide(check_input(logic, f)[0], f)


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
        if model.kind != row.kind:
            raise CertificationError(f"{row.kind} countermodel is labelled {model.kind}")
        try:
            holds = satisfies(model, world, f)
        except InvalidModelError as err:
            raise CertificationError(f"{row.kind} countermodel violates "
                                     f"{err.violations[0].condition}") from err
        if holds:
            raise CertificationError(
                f"{row.kind} countermodel fails to falsify the source formula")
    return Verdict(False, model, world)
