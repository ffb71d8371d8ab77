"""Record the expected verdict tables in expected.json.

    python3 bench/record.py

The benchmark compares every answer with these tables, so they are
recorded once and checked at that time against references that do not
come from the solver:

* the benchmark's generators give, formula for formula, the program's own
  `enumerate_formulas` and `random_formula` (same AST after parsing);
* each Valid answer of `decide` has no countermodel of at most 2 worlds
  per `brute_force_decide`;
* each Invalid answer, of `decide` or of the oracle, carries a model of
  the logic's class that falsifies the formula (`validate`, `satisfies`);
* an oracle countermodel implies an Invalid `decide` answer;
* every `theorems` instance is decided Valid.

A query that `decide` cannot answer within RECORD_DEADLINE_S is recorded
as "?"; the benchmark then accepts a certified Invalid answer, or a Valid
one that the bounded oracle does not refute.
"""

from __future__ import annotations

import json
import signal
import sys

import gen
import run

RECORD_DEADLINE_S = 2 * run.DEADLINE_S


def check_generators() -> None:
    from ckstar.oracle import enumerate_formulas, random_formula
    from ckstar.syntax import FragmentTag, parse_formula
    pairs = [(gen.enumerate_formulas(5, gen.PQ), enumerate_formulas(5, gen.PQ)),
             (gen.enumerate_formulas(5, gen.PQ, gen.L_UNARY),
              enumerate_formulas(5, gen.PQ, FragmentTag.L)),
             ([gen.random_formula(s, d, gen.PQR) for d, n in gen.HARD for s in range(n)],
              [random_formula(s, d, gen.PQR) for d, n in gen.HARD for s in range(n)])]
    for texts, asts in pairs:
        if len(texts) != len(asts) or any(
                parse_formula(t) != f for t, f in zip(texts, asts)):
            raise SystemExit("benchmark generator disagrees with ckstar.oracle")


def verdict(harness: run.Harness, q: gen.Query) -> str:
    """V, I or ? for one query, cross-checked as the module docstring says."""
    signal.setitimer(signal.ITIMER_REAL, RECORD_DEADLINE_S)
    try:
        line = harness.answer(q)
    except run.DeadlineExceeded:
        return "?"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    answer = "I" if json.loads(line)["verdict"] == "invalid" else "V"
    # "?" makes the check confirm a Valid answer with the bounded oracle.
    error, _ = harness.check(q, line, "I" if answer == "I" else "?")
    if error:
        raise SystemExit(f"{run.describe(q)}: {error}")
    return answer


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    check_generators()
    tables: dict[str, str] = {}
    for workload in ("corpus", "hard", "oracle"):
        harness = run.Harness(workload, {})
        for group in gen.workload_groups(workload):
            for q in group:
                tables[q.table] = tables.get(q.table, "") + verdict(harness, q)
    for i, (mark, seen) in enumerate(zip(tables["oracle/ck_star"],
                                         tables["corpus/ck_star"])):
        if mark == "I" and seen != "I":
            raise SystemExit(f"oracle refutes corpus formula {i}, decide says {seen}")
    harness = run.Harness("theorems", {})
    for q in gen.workload_groups("theorems")[0]:
        if verdict(harness, q) != "V":
            raise SystemExit(f"theorem not decided valid: {run.describe(q)}")
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, indent=0, sort_keys=True)
        handle.write("\n")
    for key, marks in sorted(tables.items()):
        print(key, {m: marks.count(m) for m in sorted(set(marks))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
