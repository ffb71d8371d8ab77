"""Reference elimination for the tableau of `ckstar.solver`.

The global fixpoint over a tableau's expanded states (or the part of them
a search pass reached), with the other states counted dead: delete the
states with a failed obligation (a decomposition with no alive successor,
a saturated state with a dead demand), then, in rounds, mark every eventuality family over all
alive states and delete the saturated states with an unfulfilled one.
Each round costs families x states, and nested eventualities need a round
per level of nesting; the tableau settles one strongly connected component
at a time instead, and the tests compare its alive sets and fulfilment
marks with these state by state.  The marking here is the reference's
own: one byte per state for each (family, automaton state), spread
backwards over the alive steps, independent of the tableau's int marks.
The package does not ship it.
"""

from __future__ import annotations

from collections import defaultdict


def reference_alive(engine, present=None) -> bytearray:
    """States of `engine` (a `ckstar.solver._Tableau`) that survive
    deletion to a fixpoint, one byte per state id.  The states present are
    the expanded ones, or the ids in `present`, all expanded; steps follow
    the entries as they stand."""
    info, parents = engine.info, engine.parents
    alive = bytearray(len(engine.states))
    for i in engine.order if present is None else present:
        alive[i] = 1

    def propagate(work: list) -> None:
        while work:
            i = work.pop()
            if not alive[i]:
                continue
            entry = info[i]
            if entry[0] == "or":
                dead = not any(alive[t] for t in entry[1])
            else:
                dead = any(not alive[d] for d in entry[1])
            if dead:
                alive[i] = 0
                work.extend(parents[i])

    propagate([i for i in engine.order if alive[i]])
    while True:
        rev_steps, saturated, families = alive_steps(engine, alive)
        marked = {m: fulfilled(engine, m, rev_steps, saturated)
                  for m in sorted(families)}
        doomed = [i for i in saturated
                  if not all(marked[m][i] for m in info[i][3])]
        if not doomed:
            return alive
        seeds = []
        for i in doomed:
            alive[i] = 0
            seeds.extend(parents[i])
        propagate(seeds)


def alive_steps(engine, alive: bytearray) -> tuple[list, list, set]:
    """Reverse steps among the alive states of `engine` per id, as (letter,
    predecessor) with letter None for a decomposition; the alive saturated
    ids; and their eventuality families."""
    info = engine.info
    rev_steps: list[list] = [[] for _ in engine.states]
    saturated: list[int] = []
    families: set[int] = set()
    for i in engine.order:
        if not alive[i]:
            continue
        entry = info[i]
        if entry[0] == "or":
            for t in entry[1]:
                if alive[t]:
                    rev_steps[t].append((None, i))
        else:
            # An alive saturated state has every demand alive.
            saturated.append(i)
            families.update(entry[3])
            for d, a in zip(entry[1], entry[2]):
                rev_steps[d].append((a, i))
    return rev_steps, saturated, families


def fulfilled(engine, member: int, rev_steps: list, saturated: list) -> bytearray:
    """Alive states from which a word accepted by the automaton of starred
    member (letters consumed at modal steps, none at decompositions)
    reaches an alive saturated state demanding the body false, as one byte
    per state id.  rev_steps and saturated are those of `alive_steps`."""
    body = engine.args[member][0]
    accepting, automaton_states, moves = engine._automaton(member)
    preds = defaultdict(list)  # (letter, to state): its from states
    for x, r1, r2 in moves:
        preds[x, r2].append(r1)
    bad_code = body << 1
    states = engine.states
    marks = [bytearray(len(states)) for _ in automaton_states]
    work: list[tuple] = []
    for u in saturated:
        if states[u] >> bad_code & 1:
            for r in accepting:
                marks[r][u] = 1
                work.append((u, r))
    while work:
        u2, r2 = work.pop()
        for x, u1 in rev_steps[u2]:
            # A decomposition step reads no letter.
            for r1 in (r2,) if x is None else preds[x, r2]:
                if not marks[r1][u1]:
                    marks[r1][u1] = 1
                    work.append((u1, r1))
    return marks[0]  # the automaton's start state
