"""Benchmark inputs, generated as formula text from the benchmark's own code.

The program under test only ever sees the text.  The generators reproduce
`ckstar.oracle.enumerate_formulas` and `ckstar.oracle.random_formula`
draw for draw (same order, same random calls), so "depth-6 seed 17" names
the same formula here as in the program's own tests; `record.py` checks
that once against the program and pins the verdicts in `expected.json`.
Binary connectives are always parenthesised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LSTAR_UNARY = ("[]", "<>", "[*]", "<*>")
L_UNARY = ("[]", "<>")
BINARY = ("&", "|", "->")


def enumerate_formulas(max_size: int, atoms: tuple[str, ...],
                       unary: tuple[str, ...] = LSTAR_UNARY) -> list[str]:
    """Every formula with at most max_size AST nodes, smallest first."""
    by_size = {1: ["false", *atoms]}
    for s in range(2, max_size + 1):
        layer = [op + f for op in unary for f in by_size[s - 1]]
        for op in BINARY:
            for i in range(1, s - 1):
                for left in by_size[i]:
                    for right in by_size[s - 1 - i]:
                        layer.append(f"({left} {op} {right})")
        by_size[s] = layer
    return [f for s in range(1, max_size + 1) for f in by_size[s]]


def random_formula(seed: int, depth: int, atoms: tuple[str, ...],
                   unary: tuple[str, ...] = LSTAR_UNARY) -> str:
    """Uniform over leaf, unary and binary constructors down to depth."""
    rng = random.Random(seed)
    leaves = ["false", *atoms]
    ops = ["leaf", *unary, *BINARY]

    def go(d: int) -> str:
        if d <= 0:
            return rng.choice(leaves)
        op = rng.choice(ops)
        if op == "leaf":
            return rng.choice(leaves)
        if op in BINARY:
            left = go(d - 1)
            right = go(d - 1)
            return f"({left} {op} {right})"
        return op + go(d - 1)

    return go(depth)


# Valid schemas: every substitution instance is a theorem of the logic, so
# the expected verdict does not come from the solver.
CK_STAR_SCHEMAS = (
    "[](A -> B) -> ([]A -> []B)",
    "[](A -> B) -> (<>A -> <>B)",
    "[*]A -> A & [][*]A",
    "[*]A -> [*][*]A",
    "<*><*>A -> <*>A",
    "[*](A -> []A) -> (A -> [*]A)",
)
CS4_SCHEMAS = (
    "[](A -> B) -> ([]A -> []B)",
    "[]A -> [][]A",
    "<><>A -> <>A",
)


def instantiate(schema: str, a: str, b: str) -> str:
    return schema.replace("A", f"({a})").replace("B", f"({b})")


@dataclass(frozen=True)
class Query:
    logic: str
    text: str
    table: "str | None"   # key of the expected-verdict table; None means valid
    seed: int             # formula seed, or index in the table
    depth: "int | None" = None
    schema: "int | None" = None


PQ = ("p", "q")
PQR = ("p", "q", "r")
# Formula seeds 0..n-1 at each depth.  Depth-6 seed 17 ran for 149 s when
# this benchmark was written; it is kept so the deadline path runs.
HARD = ((5, 200), (6, 60))
# Whole passes a run makes at least.  One pass of `hard` or `theorems` has
# only 13 or 27 samples beyond its p95; timing each query twice steadies
# the tail (over ten seeds, from 14% to 4% spread on `hard`).
MIN_PASSES = {"hard": 2, "theorems": 2}
THEOREM_DEPTH = 2
THEOREM_INSTANCES = 60


def workload_groups(name: str) -> list[list[Query]]:
    """The workload's queries, as groups answered one after the other."""
    if name in ("corpus", "oracle"):
        ck = enumerate_formulas(5, PQ)
        group = [Query("ck_star", t, f"{name}/ck_star", i) for i, t in enumerate(ck)]
        if name == "corpus":
            cs4 = enumerate_formulas(5, PQ, L_UNARY)
            group += [Query("cs4", t, "corpus/cs4", i) for i, t in enumerate(cs4)]
        return [group]
    if name == "hard":
        return [[Query("ck_star", random_formula(s, d, PQR), f"hard/{d}", s, d)
                 for s in range(n)] for d, n in HARD]
    if name == "theorems":
        group = []
        for logic, schemas, unary in (("ck_star", CK_STAR_SCHEMAS, LSTAR_UNARY),
                                      ("cs4", CS4_SCHEMAS, L_UNARY)):
            for i, schema in enumerate(schemas):
                for k in range(THEOREM_INSTANCES):
                    a = random_formula(2 * k, THEOREM_DEPTH, PQ, unary)
                    b = random_formula(2 * k + 1, THEOREM_DEPTH, PQ, unary)
                    group.append(Query(logic, instantiate(schema, a, b), None, k,
                                       THEOREM_DEPTH, i))
        return [group]
    raise ValueError(f"unknown workload {name!r}")
