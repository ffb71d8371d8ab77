"""Shared test utilities: a formula node walker, model constructors from
pair lists, seeded AST and model generators, a naive evaluator, the
single-program fragment's constructive reading, and a recursion-limit guard
for wide formulas.

The naive evaluator follows the satisfaction clauses literally with
world-by-world recursion and explicit path search, so it is independent of
the extension-set implementation it cross-checks.  A switch reads the
master box over (pre;mod*)* instead of (pre;mod)*, so the tests can check
that the two readings agree on CK models.
"""

from __future__ import annotations

import contextlib
import random
import signal
import sys

from ckstar.relmodel import (
    BiModel,
    PdlModel,
    Relation,
    bits_of,
    mask_of,
    rel_star,
    validate,
)
from ckstar.syntax import (
    Atom,
    And,
    Bot,
    Box,
    BoxP,
    BoxStar,
    Comp,
    Dia,
    DiaStar,
    Formula,
    Imp,
    Neg,
    Or,
    PAtom,
    PdlFormula,
    Program,
    Star,
)
from ckstar.translate import iota


def iter_nodes(f):
    """Every formula node of f, one per occurrence; programs are skipped."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if hasattr(g, "left"):
            stack.extend((g.left, g.right))
        elif hasattr(g, "body"):
            stack.append(g.body)


@contextlib.contextmanager
def stack_headroom(frames: int):
    """Run the body with at most `frames` Python frames above the caller's,
    so code that recurses once per part of a wide formula fails on a
    formula small enough to decide quickly."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextlib.contextmanager
def alarm(seconds: int, what: str):
    """Fail the body with TimeoutError if it runs longer than `seconds`."""
    def expired(*_):
        raise TimeoutError(what)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        # Raised from a tight loop, the handler's traceback can carry a
        # frame whose line number is None (seen on CPython 3.11), and
        # pytest then aborts the session instead of failing the test.
        raise TimeoutError(what) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def balanced_text(parts: list[str], op: str) -> str:
    """The parts joined by the binary operator `op` as a balanced tree."""
    if len(parts) == 1:
        return parts[0]
    k = len(parts) // 2
    return f"({balanced_text(parts[:k], op)} {op} {balanced_text(parts[k:], op)})"


def bi_model(worlds: int, pre, mod, val=None, bot=(), kind: str = "ck") -> BiModel:
    """Convenience constructor taking pair lists and plain sets of worlds."""
    pre_r = pre if isinstance(pre, Relation) else Relation.from_pairs(worlds, pre)
    mod_r = mod if isinstance(mod, Relation) else Relation.from_pairs(worlds, mod)
    vals = {name: mask_of(ws) for name, ws in (val or {}).items()}
    return BiModel(worlds, pre_r, mod_r, vals, mask_of(bot), kind)


def pdl_model(worlds: int, rho, val=None) -> PdlModel:
    rels = {a: (r if isinstance(r, Relation) else Relation.from_pairs(worlds, r))
            for a, r in rho.items()}
    vals = {name: mask_of(ws) for name, ws in (val or {}).items()}
    return PdlModel(worlds, rels, vals)


def kstar_to_lstar(f: PdlFormula) -> Formula:
    """A single-program classical formula read in the diamond-free
    constructive language: the consequent of its `iota` image."""
    return iota(f).right


def random_lstar(rng: random.Random, depth: int, atoms=("p", "q")) -> Formula:
    leaves = [Bot()] + [Atom(a) for a in atoms]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return And(random_lstar(rng, depth - 1, atoms), random_lstar(rng, depth - 1, atoms))
    if kind == 2:
        return Or(random_lstar(rng, depth - 1, atoms), random_lstar(rng, depth - 1, atoms))
    if kind == 3:
        return Imp(random_lstar(rng, depth - 1, atoms), random_lstar(rng, depth - 1, atoms))
    if kind == 4:
        return Box(random_lstar(rng, depth - 1, atoms))
    if kind == 5:
        return Dia(random_lstar(rng, depth - 1, atoms))
    if kind == 6:
        return BoxStar(random_lstar(rng, depth - 1, atoms))
    if kind == 7:
        return DiaStar(random_lstar(rng, depth - 1, atoms))
    return rng.choice(leaves)


def random_program(rng: random.Random, depth: int, atoms=("i", "m", "a")) -> Program:
    if depth <= 0 or rng.random() < 0.4:
        return PAtom(rng.choice(atoms))
    if rng.random() < 0.5:
        return Comp(random_program(rng, depth - 1, atoms), random_program(rng, depth - 1, atoms))
    return Star(random_program(rng, depth - 1, atoms))


def random_lkstar(rng: random.Random, depth: int, atoms=("p", "q")) -> PdlFormula:
    """Classical formulas whose only programs are a and a*."""
    if depth <= 0:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(7)
    if kind == 0:
        return Atom(rng.choice(atoms))
    if kind == 1:
        return Neg(random_lkstar(rng, depth - 1, atoms))
    if kind == 2:
        return And(random_lkstar(rng, depth - 1, atoms), random_lkstar(rng, depth - 1, atoms))
    if kind == 3:
        return Or(random_lkstar(rng, depth - 1, atoms), random_lkstar(rng, depth - 1, atoms))
    if kind == 4:
        return BoxP(PAtom("a"), random_lkstar(rng, depth - 1, atoms))
    return BoxP(Star(PAtom("a")), random_lkstar(rng, depth - 1, atoms))


def random_pdl(rng: random.Random, depth: int, atoms=("p", "q"), prog_atoms=("i", "m", "a")) -> PdlFormula:
    if depth <= 0:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(6)
    if kind == 0:
        return Atom(rng.choice(atoms))
    if kind == 1:
        return Neg(random_pdl(rng, depth - 1, atoms, prog_atoms))
    if kind == 2:
        return And(random_pdl(rng, depth - 1, atoms, prog_atoms), random_pdl(rng, depth - 1, atoms, prog_atoms))
    if kind == 3:
        return Or(random_pdl(rng, depth - 1, atoms, prog_atoms), random_pdl(rng, depth - 1, atoms, prog_atoms))
    return BoxP(random_program(rng, 2, prog_atoms), random_pdl(rng, depth - 1, atoms, prog_atoms))


def rand_ck_model(rng: random.Random, max_worlds: int = 4, atoms=("p", "q"),
                  fallible: bool = True):
    """Random validated CK model (WK when fallible=False)."""
    n = rng.randrange(1, max_worlds + 1)
    pre = rel_star(Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.3]))
    mod = Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.3])
    bot = 0
    if fallible:
        bot = mask_of(w for w in range(n) if rng.random() < 0.2)
        bot = rel_star(pre.union(mod)).image(bot)
        rows = list(mod.rows)
        for w in range(n):
            if bot >> w & 1 and rows[w] == 0:
                rows[w] |= 1 << w
        mod = Relation(n, tuple(rows))
        bot = rel_star(pre.union(mod)).image(bot)
    val = {}
    for a in atoms:
        base = bot | mask_of(w for w in range(n) if rng.random() < 0.4)
        closed = base
        for w in range(n):
            if base >> w & 1:
                closed |= pre.rows[w]
        val[a] = closed
    kind = "ck" if bot else "wk"
    m = BiModel(n, pre, mod, val, bot, kind)
    assert validate(m, kind) == []
    return m


def rand_pdl_model(rng: random.Random, max_worlds: int = 4,
                   prog_atoms=("i", "m"), atoms=("p", "q")):
    n = rng.randrange(1, max_worlds + 1)
    rho = {a: Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.3])
        for a in prog_atoms}
    val = {a: mask_of(w for w in range(n) if rng.random() < 0.4) for a in atoms}
    return PdlModel(n, rho, val)


def random_pdl_model(seed: int, max_worlds: int,
                     prog_atoms: tuple[str, ...] = ("i", "m"),
                     atoms: tuple[str, ...] = ("p", "q")):
    """Random classical model, deterministic from the seed."""
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    rho = {a: Relation.from_pairs(
        n, [(w, v) for w in range(n) for v in range(n) if rng.random() < 0.35])
        for a in prog_atoms}
    val = {a: mask_of(w for w in range(n) if rng.random() < 0.45)
           for a in atoms}
    return PdlModel(n, rho, val)


def naive_satisfies(m, w: int, f: Formula, *, alt_boxstar: bool = False) -> bool:
    """Direct recursive reading of the satisfaction clauses.  With
    alt_boxstar the master box reads over (pre;mod*)* instead of
    (pre;mod)*."""
    pre = set(m.pre.pairs())
    mod = set(m.mod.pairs())
    n = m.worlds

    def star(rel):
        reach = {v: {v} for v in range(n)}
        changed = True
        while changed:
            changed = False
            for (x, y) in rel:
                for s in reach.values():
                    if x in s and y not in s:
                        s.add(y)
                        changed = True
        return {(x, y) for x, s in reach.items() for y in s}

    pre_r = {(x, y) for x in range(n) for y in range(n) if (x, y) in pre}
    comp = {(x, z) for (x, y) in pre_r for (y2, z) in mod if y == y2}
    mod_star = star(mod)
    step = mod_star if alt_boxstar else mod
    comp_star = star({(x, z) for (x, y) in pre_r for (y2, z) in step if y == y2})

    bot = set(bits_of(m.bot))

    def val(name):
        return set(bits_of(m.val[name])) if name in m.val else bot

    def sat(v, g) -> bool:
        if isinstance(g, Bot):
            return v in bot
        if isinstance(g, Atom):
            return v in val(g.name)
        if isinstance(g, And):
            return sat(v, g.left) and sat(v, g.right)
        if isinstance(g, Or):
            return sat(v, g.left) or sat(v, g.right)
        if isinstance(g, Imp):
            return all(not sat(u, g.left) or sat(u, g.right)
                       for u in range(n) if (v, u) in pre)
        if isinstance(g, Box):
            return all(sat(u, g.body) for u in range(n) if (v, u) in comp)
        if isinstance(g, Dia):
            return all(any((u, t) in mod and sat(t, g.body) for t in range(n))
                       for u in range(n) if (v, u) in pre)
        if isinstance(g, BoxStar):
            return all(sat(u, g.body) for u in range(n) if (v, u) in comp_star)
        if isinstance(g, DiaStar):
            return all(any((u, t) in mod_star and sat(t, g.body) for t in range(n))
                       for u in range(n) if (v, u) in pre)
        raise TypeError(g)

    return sat(w, f)
