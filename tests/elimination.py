"""Reference elimination for the tableau of `ckstar.solver`.

The global fixpoint over a tableau's expanded states, with the states not
yet expanded counted dead: delete the states with a failed obligation (a
decomposition with no alive successor, a saturated state with a dead or
clashing demand), then, in rounds, mark every eventuality family over all
alive states and delete the saturated states with an unfulfilled one.
Each round costs families x states, and nested eventualities need a round
per level of nesting; the tableau settles one strongly connected component
at a time instead, and the tests compare its alive sets with these state
by state.  The package does not ship it.
"""

from __future__ import annotations


def reference_alive(engine) -> bytearray:
    """Expanded states of `engine` (a `ckstar.solver._Tableau`) that
    survive deletion to a fixpoint, one byte per state id."""
    info, parents = engine.info, engine.parents
    alive = bytearray(len(engine.states))
    for i in engine.order:
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
                dead = any(d is None or not alive[d] for _, _, d in entry[1])
            if dead:
                alive[i] = 0
                work.extend(parents[i])

    propagate(list(engine.order))
    while True:
        rev_steps, saturated, families = engine._alive_steps(alive)
        fulfilled = {m: engine._fulfilled(m, rev_steps, saturated)
                     for m in sorted(families)}
        doomed = [i for i in saturated
                  if not all(fulfilled[m][i] for m in info[i][2])]
        if not doomed:
            return alive
        seeds = []
        for i in doomed:
            alive[i] = 0
            seeds.extend(parents[i])
        propagate(seeds)
