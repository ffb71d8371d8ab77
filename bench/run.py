"""Decision benchmark for ckstar.

    python3 bench/run.py --workload corpus --seed 0 --seconds 5 --trace 0

One process, one caller, closed loop: each query starts when the previous
one has been answered and re-checked.  A query does what `ckstar decide`
(or `ckstar oracle`) does for one input line: parse the text, decide,
build the JSON object and serialise it.  Each query runs under a
per-query deadline set with `signal.setitimer`.

The run answers the whole workload in an order drawn from --seed and
repeats it in fresh orders, whole passes only, until --seconds have
passed.  With --trace 0 it prints the end-to-end metrics.  With --trace 1
it answers one pass with every query twice, untraced and then with the
spans of `tracing.py`, and prints the per-layer metrics.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every answer checked out, 1 when one
did not, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WORKLOADS = ("corpus", "hard", "theorems", "oracle")
# More than 5x the slowest query that decided when this benchmark was
# written (0.85 s), so no decided query sits near the deadline.
DEADLINE_S = 5.0
SETUP_PROBES = 9
# Stop starting queries after this long, whatever --seconds says, so that
# a run of a much slower program still ends within three minutes.
HARD_STOP_S = 120.0
MODEL_KIND = {"ck_star": "ck", "cs4": "cs4"}
# The speed of a shared machine drifts by up to 40% over minutes and 2x
# over seconds.  A fixed reference loop, timed between queries every
# PROBE_EVERY_S, drifts with it; the run's timings are divided by its mean
# slowdown against REFERENCE_S, so runs at different moments compare.
REFERENCE_S = 0.025
PROBE_EVERY_S = 0.25


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a query; a BaseException so that no
    `except Exception` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def measure_setup() -> float:
    """Median seconds from starting a fresh interpreter to `import
    ckstar.cli` done, which is what the `ckstar` command pays before its
    first query.  The child reads the same monotonic clock, so interpreter
    teardown is not counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c",
           "import time, ckstar.cli; print(time.perf_counter())"]
    probe = dict(env=env, cwd=ROOT, check=True, timeout=60,
                 capture_output=True, text=True)
    subprocess.run(cmd, **probe)  # writes the bytecode cache once
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = float(subprocess.run(cmd, **probe).stdout)
        times.append(done - t0)
    return statistics.median(times)


def tail_percentile(pool_size: int) -> float:
    """The highest of these percentiles with at least ten samples beyond
    it in one pass over the workload."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if pool_size * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solver's: frozensets built,
    hashed and looked up in a growing dict.  It calls nothing in ckstar,
    so the program's speed does not move it."""
    states: dict = {}
    order = []
    cur = frozenset((0,))
    for i in range(12000):
        nxt = cur | frozenset((i % 97, (i * 31) % 89))
        if len(nxt) > 12:
            nxt = frozenset(sorted(nxt)[:4])
        if nxt not in states:
            states[nxt] = (i, tuple(sorted(nxt)))
            order.append(nxt)
        cur = nxt
    return sum(states[s][0] & 3 for s in order)


class SpeedProbe:
    """Times `reference_work` between queries, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        if perf_counter() < self._next:
            return
        # Collection off: the cost of a collection grows with the heap the
        # program leaves behind, which must not read as machine speed.
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()
        self._next = perf_counter() + PROBE_EVERY_S

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_S


class Harness:
    """Answers and re-checks queries against the program under test."""

    def __init__(self, workload: str, tables: dict[str, str]):
        from ckstar import oracle, relmodel, semantics, solver, syntax
        self.solver, self.syntax, self.oracle, self.relmodel = solver, syntax, oracle, relmodel
        # Bound now, before any tracer wraps module attributes, so the
        # re-check never shows up in the trace.
        self._parse = syntax.parse_formula
        self._load_model = relmodel.load_model
        self._validate = relmodel.validate
        self._satisfies = semantics.satisfies
        self._bounded = oracle.brute_force_decide
        self.answer = self.answer_oracle if workload == "oracle" else self.answer_decide
        self.tables = tables

    # -- the timed part: what the CLI does for one input line ------------

    def answer_decide(self, q: gen.Query) -> str:
        f = self.syntax.parse_formula(q.text)
        verdict = self.solver.decide(q.logic, f)
        return json.dumps(verdict.to_obj(), sort_keys=True)

    def answer_oracle(self, q: gen.Query) -> str:
        f = self.syntax.parse_formula(q.text)
        found = self.oracle.brute_force_decide(
            q.logic, f, self.oracle.EnumSpec(2, gen.PQ))
        if found.valid_up_to_bound:
            obj = {"verdict": "valid_up_to_bound", "max_worlds": 2}
        else:
            obj = {"verdict": "invalid", "world": found.world,
                   "model": self.relmodel.model_to_obj(found.model)}
        return json.dumps(obj, sort_keys=True)

    # -- the re-check, outside the timed region ---------------------------

    def expected(self, q: gen.Query) -> str:
        """V (valid), I (invalid) or ? (undecided when recorded)."""
        return "V" if q.table is None else self.tables[q.table][q.seed]

    def check(self, q: gen.Query, line: str,
              want: str) -> "tuple[str | None, int | None]":
        """(failure message or None, countermodel worlds or None)."""
        obj = json.loads(line)
        f = self._parse(q.text)
        if obj["verdict"] in ("valid", "valid_up_to_bound"):
            if want == "V":
                return None, None
            if want == "?" and self._bounded(
                    q.logic, f, self.oracle.EnumSpec(2, gen.PQR)).valid_up_to_bound:
                return None, None
            return f"wrong verdict: valid, expected {want}", None
        if obj["verdict"] != "invalid":
            return f"unknown verdict {obj['verdict']!r}", None
        if want == "V":
            return "wrong verdict: invalid, expected valid", None
        model = self._load_model(json.dumps(obj["model"]))
        if self._validate(model, MODEL_KIND[q.logic]):
            return "uncertified: countermodel violates its model class", None
        if self._satisfies(model, obj["world"], f):
            return "uncertified: countermodel satisfies the formula", None
        return None, model.worlds


class Pass:
    """Outcomes of the queries answered in one measured stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.trips: list[gen.Query] = []
        self.cut: set[int] = set()   # positions in `latencies` of deadline trips
        self.failures: list[str] = []
        self.cm_worlds: dict[int, int] = {}   # query index -> worlds
        self.valid = 0
        self.rss_before_trip: "float | None" = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def answer_one(harness: Harness, q: gen.Query, out: Pass, index: int,
               tracer: "tracing.Tracer | None" = None) -> None:
    rss = max_rss_mb()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    line = error = None
    try:
        if tracer is None:
            line = harness.answer(q)
        else:
            with tracer.query(index):
                line = harness.answer(q)
    except DeadlineExceeded:
        pass
    except Exception as err:  # a query that raises is a failed operation
        error = f"{type(err).__name__}: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        out.latencies.append(perf_counter() - t0)
    if line is None and error is None:
        out.trips.append(q)
        out.cut.add(out.attempted - 1)
        if out.rss_before_trip is None:
            out.rss_before_trip = rss
        gc.collect()
        return
    if error is None:
        try:
            error, worlds = harness.check(q, line, harness.expected(q))
        except Exception as err:  # a malformed answer is a failed operation
            error, worlds = f"check raised {type(err).__name__}: {err}", None
        if worlds is not None:
            out.cm_worlds[index] = worlds
        elif error is None:
            out.valid += 1
    if error is not None:
        out.failures.append(f"{describe(q)}: {error}")


def describe(q: gen.Query) -> str:
    parts = [q.logic]
    if q.depth is not None:
        parts.append(f"depth={q.depth}")
    if q.schema is not None:
        parts.append(f"schema={q.schema}")
    parts.append(f"index={q.seed}" if q.depth is None else f"seed={q.seed}")
    return " ".join(parts)


def seeded_order(groups: list[list[gen.Query]], rng: random.Random) -> list[gen.Query]:
    order = []
    for group in groups:
        shuffled = list(group)
        rng.shuffle(shuffled)
        order.extend(shuffled)
    return order


def timed_run(harness: Harness, groups, seed: int, seconds: float,
              min_passes: int, probe: SpeedProbe) -> tuple[Pass, float]:
    """Whole passes, each in a fresh seeded order, until `seconds` have
    passed and at least `min_passes` are done.  Only whole passes run, so
    every run answers the same mix."""
    rng = random.Random(seed)
    out = Pass()
    pool = sum(len(g) for g in groups)
    start = perf_counter()
    while True:
        for q in seeded_order(groups, rng):
            if perf_counter() - start >= HARD_STOP_S:
                return out, out.attempted / pool
            probe.tick()
            answer_one(harness, q, out, out.attempted)
        passes = out.attempted / pool
        if passes >= min_passes and perf_counter() - start >= seconds:
            return out, passes


def warm_up(harness: Harness, groups) -> None:
    """Answer a few small inputs per logic so lazy imports and first-call
    costs are paid before timing."""
    logics = sorted({q.logic for group in groups for q in group})
    for logic in logics:
        unary = gen.LSTAR_UNARY if logic == "ck_star" else gen.L_UNARY
        for text in gen.enumerate_formulas(3, gen.PQ, unary)[:30]:
            harness.answer(gen.Query(logic, text, None, 0))


def environment() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def trip_list(workload: str, trips: list[gen.Query]) -> list[dict]:
    return [{"workload": workload, "logic": q.logic, "depth": q.depth,
             "seed": q.seed, **({"schema": q.schema} if q.schema is not None else {})}
            for q in trips]


def end_to_end(args, harness: Harness, groups) -> tuple[Pass, dict, dict]:
    setup_s = measure_setup()
    probe = SpeedProbe()
    out, passes = timed_run(harness, groups, args.seed, args.seconds,
                            gen.MIN_PASSES.get(args.workload, 1), probe)
    slowdown = probe.slowdown()
    raw = sorted(out.latencies)
    # A trip lasts the deadline, which is wall time at any machine speed.
    lat = sorted(t if i in out.cut else t / slowdown
                 for i, t in enumerate(out.latencies))
    tail_p = tail_percentile(sum(len(g) for g in groups))
    decided = out.attempted - len(out.trips) - len(out.failures)
    peak = out.rss_before_trip if out.rss_before_trip is not None else max_rss_mb()
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (out.attempted / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_p) * 1e3, "ms"),
        "decided_share": (decided / out.attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    invalid = len(out.cm_worlds)
    info = {
        "passes": round(passes, 3),
        "slowdown": slowdown,
        "as_timed": {"queries_per_s": out.attempted / sum(raw),
                     "latency_p50_ms": statistics.median(raw) * 1e3,
                     "latency_tail_ms": percentile(raw, tail_p) * 1e3},
        "tail_percentile": tail_p,
        "verdicts": {"valid": out.valid, "invalid": invalid,
                     "undecided": len(out.trips), "failed": len(out.failures)},
        "cm_worlds_mean": sum(out.cm_worlds.values()) / invalid if invalid else None,
        "peak_rss_scope": ("queries before the first deadline trip"
                           if out.rss_before_trip is not None else "whole run"),
    }
    return out, metrics, info


def per_layer(args, harness: Harness, groups) -> tuple[Pass, dict, dict]:
    """One pass in which each query is answered twice, back to back:
    untraced, then traced, so both see the same machine speed and the
    ratio of their times is the tracing overhead."""
    order = seeded_order(groups, random.Random(args.seed))
    tracer = tracing.Tracer()
    probe = SpeedProbe()
    plain, traced = Pass(), Pass()
    for i, q in enumerate(order):
        probe.tick()
        answer_one(harness, q, plain, i)
        tracer.install()
        try:
            answer_one(harness, q, traced, i, tracer)
        finally:
            tracer.uninstall()
    slowdown = probe.slowdown()

    n = len(order)
    metrics, by_name = tracing.summarise(tracer, n, traced.cm_worlds)
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] /= slowdown
    invalid = len(traced.cm_worlds)
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    layer_self = sum(t for name, t in by_name.items() if name != tracing.QUERY)
    harness_self = by_name.get(tracing.QUERY, 0.0)
    metrics["solver.cm_worlds_mean"] = (
        sum(traced.cm_worlds.values()) / invalid if invalid else 0.0)
    metrics["solver.deadline_trips"] = len(traced.trips)
    metrics["harness.self_s"] = harness_self / n / slowdown
    metrics["harness.trace_overhead"] = traced_s / plain_s
    info = {
        "slowdown": slowdown,
        # Seconds as timed: the spans' self times plus the harness's own
        # time inside the query span add up to the traced time.
        "traced_pass": {
            "queries": n,
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "layer_self_s": layer_self,
            "harness_self_s": harness_self,
            "unaccounted_s": traced_s - layer_self - harness_self,
        },
        "self_s_by_span": {k: round(v, 6) for k, v in sorted(by_name.items())},
        "absent": [name for name, _, _ in PER_LAYER if name not in metrics],
        "wrapped_missing": tracer.missing,
        "wait_s": "0 for every layer: no layer has a queue",
    }
    out = Pass()
    for p in (plain, traced):
        out.latencies += p.latencies
        out.failures += p.failures
    out.trips = traced.trips
    units = {name: unit for name, unit, _ in PER_LAYER}
    return out, {k: (metrics[k], units[k]) for k in units if k in metrics}, info


# name, unit, better
PER_LAYER = (
    ("syntax.parse_s", "s/query", "lower"),
    ("syntax.fragment_s", "s/query", "lower"),
    ("translate.formula_maps_s", "s/query", "lower"),
    ("translate.model_maps_s", "s/query", "lower"),
    ("solver.closure_s", "s/query", "lower"),
    ("solver.closure_size", "members", "lower"),
    ("solver.search_s", "s/query", "lower"),
    ("solver.graph_nodes", "nodes", "lower"),
    ("solver.elim_rounds", "rounds", "lower"),
    ("solver.cm_worlds_per_node", "worlds/node", "higher"),
    ("solver.cm_worlds_mean", "worlds", "lower"),
    ("solver.glue_s", "s/query", "lower"),
    ("solver.deadline_trips", "count", "lower"),
    ("semantics.certify_s", "s/query", "lower"),
    ("semantics.certify_calls", "calls/invalid", "lower"),
    ("semantics.extension_s", "s/query", "lower"),
    ("relmodel.validate_s", "s/query", "lower"),
    ("relmodel.validate_calls", "calls/invalid", "lower"),
    ("relmodel.serialize_s", "s/query", "lower"),
    ("oracle.enumerate_s", "s/query", "lower"),
    ("oracle.models_scanned", "models/query", "lower"),
    ("harness.self_s", "s/query", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ckstar" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'ckstar'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ckstar
    if Path(ckstar.__file__).resolve().parent != (SRC / "ckstar").resolve():
        print(f"error: imported ckstar from {ckstar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    with open(EXPECTED, encoding="utf-8") as handle:
        harness = Harness(args.workload, json.load(handle))
    groups = gen.workload_groups(args.workload)
    warm_up(harness, groups)
    measure = per_layer if args.trace else end_to_end
    out, metrics, info = measure(args, harness, groups)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "pool": sum(len(g) for g in groups), "deadline_s": DEADLINE_S,
            **info, "trips": trip_list(args.workload, out.trips),
            "failures": out.failures[:20], "env": environment()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:28s} {value:14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = not out.failures
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
