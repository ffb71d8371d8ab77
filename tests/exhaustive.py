"""Exhaustive reference engine for test-free PDL satisfiability.

Textbook type elimination: every locally consistent sign vector over the
Fischer-Ladner closure is a type, and types with an unwitnessed negative
box are deleted to a fixpoint.  It is exponential in the closure, so
`max_closure` guards it.  Its closure is the classic one, which unfolds
every starred box, and is built here rather than taken from the solver.
The tests pin `ckstar.solver.pdl_satisfiable` to it; the package does not
ship it.
"""

from __future__ import annotations

from ckstar.relmodel import PdlModel, Relation, mask_of
from ckstar.semantics import pdl_satisfies
from ckstar.solver import CertificationError
from ckstar.syntax import (
    And,
    Atom,
    BoxP,
    Comp,
    Neg,
    Or,
    PAtom,
    PdlFormula,
    Program,
    Star,
    program_atoms,
    render,
)


def fl_closure(f: PdlFormula) -> list[PdlFormula]:
    """The Fischer-Ladner closure of f in breadth-first order: subformulas,
    [P;Q]B unfolded to [P][Q]B, and [P*]B to B and [P][P*]B."""
    order = [f]
    seen = {f}
    for g in order:  # grows while it is read
        if isinstance(g, Neg):
            kids = [g.body]
        elif isinstance(g, (And, Or)):
            kids = [g.left, g.right]
        elif isinstance(g, BoxP) and isinstance(g.prog, Comp):
            kids = [BoxP(g.prog.left, BoxP(g.prog.right, g.body))]
        elif isinstance(g, BoxP) and isinstance(g.prog, Star):
            kids = [g.body, BoxP(g.prog.body, g)]
        elif isinstance(g, BoxP):
            kids = [g.body]
        else:
            kids = []
        for h in kids:
            if h not in seen:
                seen.add(h)
                order.append(h)
    return order


def _local_constraints(closure: list, idx: dict) -> list[tuple]:
    """Sign constraints between closure members, each tagged with the last
    index it mentions so backtracking can check it as early as possible."""
    cons = []
    for i, g in enumerate(closure):
        if isinstance(g, Neg):
            cons.append(("neg", i, idx[g.body]))
        elif isinstance(g, And):
            cons.append(("and", i, idx[g.left], idx[g.right]))
        elif isinstance(g, Or):
            cons.append(("or", i, idx[g.left], idx[g.right]))
        elif isinstance(g, BoxP) and isinstance(g.prog, Comp):
            unfolded = BoxP(g.prog.left, BoxP(g.prog.right, g.body))
            cons.append(("eq", i, idx[unfolded]))
        elif isinstance(g, BoxP) and isinstance(g.prog, Star):
            cons.append(("and", i, idx[g.body], idx[BoxP(g.prog.body, g)]))
    return cons


def _consistent_types(closure: list, idx: dict) -> list[int]:
    """All locally consistent sign vectors, generated by backtracking over
    the closure order (star constraints can be cyclic, so signs are not a
    function of the atomic members; enumeration keeps every solution)."""
    k = len(closure)
    by_trigger: list[list[tuple]] = [[] for _ in range(k)]
    for con in _local_constraints(closure, idx):
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
    index = {g: i for i, g in enumerate(closure)}
    types = _consistent_types(closure, index)
    atoms = program_atoms(f)
    boxes = [(i, g) for i, g in enumerate(closure) if isinstance(g, BoxP)]
    atomic_boxes = {a: [(i, index[g.body]) for i, g in boxes
                        if isinstance(g.prog, PAtom) and g.prog.name == a]
                    for a in atoms}

    alive = list(range(len(types)))
    rounds = [len(alive)]
    while True:
        pos = {}
        full = (1 << len(alive)) - 1
        for j in range(len(closure)):
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
                r = delta(prog.left).compose(delta(prog.right))
            else:
                r = delta(prog.body).star()
            delta_memo[prog] = r
            return r

        survivors = []
        for k, t in enumerate(alive):
            ok = True
            for i, g in boxes:
                if types[t] >> i & 1:
                    continue
                body_idx = index[g.body]
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

    goal_idx = index[f]
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
    reach_mask = step.star().rows[pos_of[designated]]
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
    for j, g in enumerate(closure):
        if isinstance(g, Atom):
            val[g.name] = mask_of(idx[t] for t in keep if types[t] >> j & 1)
    model = PdlModel(n, rho, val)
    world = idx[designated]
    if not pdl_satisfies(model, world, f):
        raise CertificationError(
            f"exhaustive engine model does not satisfy {render(f)!r}")
    return model, world
