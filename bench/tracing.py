"""Outside-in tracing: spans around the program's public functions.

`Tracer.install` replaces each function named in `WRAPPED` with a wrapper
at the module attribute through which the pipeline looks it up (for
example `ckstar.solver.omega`, not `ckstar.translate.omega`, because the
solver calls the name it imported).  Nothing under `src/` is edited.

Every call made while a query is open becomes a span with an id, its
parent span and the query id.  Spans stay in memory until `summarise`
turns them into per-layer self times and counters.  A span's self time is
its duration minus the durations of its child spans; calls are
synchronous, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute) pairs to wrap; the span name is "<short module>.<attr>".
WRAPPED = (
    ("ckstar.syntax", "parse_formula"),
    *(("ckstar.solver", name) for name in (
        "decide", "pdl_valid", "pdl_satisfiable", "fl_closure", "omega", "tau",
        "kappa", "pdl_model_to_wk", "wk_model_to_ck", "ck_model_to_cs4",
        "satisfies", "pdl_satisfies", "check_fragment", "variables")),
    ("ckstar.translate", "validate"),
    ("ckstar.translate", "extension"),
    ("ckstar.translate", "omega"),
    ("ckstar.semantics", "validate"),
    ("ckstar.relmodel", "model_to_obj"),
    ("ckstar.oracle", "extension"),
    ("ckstar.oracle", "brute_force_decide"),
)

# Per-layer self-time metrics: metric -> spans whose self time it sums.
SELF_TIME = {
    "syntax.parse_s": ("syntax.parse_formula",),
    "syntax.fragment_s": ("solver.check_fragment", "solver.variables"),
    "translate.formula_maps_s": ("solver.omega", "solver.tau", "solver.kappa",
                                 "translate.omega"),
    "translate.model_maps_s": ("solver.pdl_model_to_wk", "solver.wk_model_to_ck",
                               "solver.ck_model_to_cs4"),
    "solver.closure_s": ("solver.fl_closure",),
    "solver.search_s": ("solver.pdl_satisfiable",),
    "solver.glue_s": ("solver.decide", "solver.pdl_valid"),
    "semantics.certify_s": ("solver.satisfies", "solver.pdl_satisfies"),
    "semantics.extension_s": ("translate.extension", "oracle.extension"),
    "relmodel.validate_s": ("translate.validate", "semantics.validate"),
    "relmodel.serialize_s": ("relmodel.model_to_obj",),
    "oracle.enumerate_s": ("oracle.brute_force_decide",),
}

# Counter metrics and the spans they are read from.
COUNTERS = {
    "solver.closure_size": ("solver.pdl_satisfiable",),
    "solver.graph_nodes": ("solver.pdl_satisfiable",),
    "solver.elim_rounds": ("solver.pdl_satisfiable",),
    "solver.cm_worlds_per_node": ("solver.pdl_satisfiable",),
    "semantics.certify_calls": ("solver.satisfies", "solver.pdl_satisfies"),
    "relmodel.validate_calls": ("translate.validate", "semantics.validate"),
    "oracle.models_scanned": ("oracle.extension",),
}

QUERY = "harness.query"


class Tracer:
    """Wrappers for the functions in WRAPPED, and the spans they record."""

    def __init__(self):
        # span: [id, parent id, query id, name, start, end, counters]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._query: "int | None" = None
        self._targets: list[tuple] = []   # (module, attr, original, wrapper)
        for module_name, attr in WRAPPED:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            self._targets.append((module, attr, original, self._wrap(name, original)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._query, name, perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original):
        tracer = self
        stats_hook = name == "solver.pdl_satisfiable"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._query is None:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                if stats_hook and kwargs.get("stats") is None:
                    # The public `stats=` argument reports graph counters.
                    stats: dict = {}
                    kwargs["stats"] = stats
                    result = original(*args, **kwargs)
                    span[6] = {"nodes": stats.get("nodes", 0),
                               "rounds": len(stats.get("rounds", ())),
                               "closure": stats.get("closure", 0)}
                    return result
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def query(self, query_id: int) -> "_QuerySpan":
        """Context manager: the root span of one query."""
        return _QuerySpan(self, query_id)


class _QuerySpan:
    def __init__(self, tracer: Tracer, query_id: int):
        self.tracer = tracer
        self.query_id = query_id

    def __enter__(self):
        self.tracer._query = self.query_id
        self.tracer._open(QUERY)

    def __exit__(self, *exc):
        # Close whatever is still open: a deadline can fire between a
        # wrapper's bookkeeping steps.
        tracer = self.tracer
        now = perf_counter()
        for span_id in tracer._stack:
            if tracer.spans[span_id][5] is None:
                tracer.spans[span_id][5] = now
        tracer._stack.clear()
        tracer._query = None
        return False


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name.  A span that never closed (the
    deadline fired while it was being opened) counts for nothing."""
    closed = [span for span in spans if span[5] is not None]
    child_time = [0.0] * len(spans)
    for span in closed:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    out: dict[str, float] = {}
    for span in closed:
        out[span[3]] = out.get(span[3], 0.0) + span[5] - span[4] - child_time[span[0]]
    return out


def summarise(tracer: Tracer, queries: int,
              cm_worlds: dict[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics and the self time of every span name.

    `cm_worlds` maps the query id of each Invalid answer from `decide` to
    its countermodel's world count.  Times are seconds per query; call
    counts are per Invalid answer; graph counters are means per
    `pdl_satisfiable` call that ran to the end.  A metric whose wrapped
    functions could not all be found is left out and named by the caller.
    """
    by_name = self_times(tracer.spans)
    missing = set(tracer.missing)
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        if not missing & set(names):
            metrics[metric] = sum(by_name.get(n, 0.0) for n in names) / queries

    calls: dict[str, int] = {}
    finished = []
    nodes_by_query: dict[int, int] = {}
    for span in tracer.spans:
        calls[span[3]] = calls.get(span[3], 0) + 1
        if span[6] is not None:
            finished.append(span[6])
            nodes_by_query[span[2]] = nodes_by_query.get(span[2], 0) + span[6]["nodes"]

    def mean(key: str) -> float:
        return sum(c[key] for c in finished) / len(finished) if finished else 0.0

    def per_invalid(names) -> float:
        n = sum(calls.get(name, 0) for name in names)
        return n / len(cm_worlds) if cm_worlds else 0.0

    worlds = sum(cm_worlds.values())
    nodes = sum(nodes_by_query.get(q, 0) for q in cm_worlds)
    values = {
        "solver.closure_size": mean("closure"),
        "solver.graph_nodes": mean("nodes"),
        "solver.elim_rounds": mean("rounds"),
        "solver.cm_worlds_per_node": worlds / nodes if nodes else 0.0,
        "semantics.certify_calls": per_invalid(COUNTERS["semantics.certify_calls"]),
        "relmodel.validate_calls": per_invalid(COUNTERS["relmodel.validate_calls"]),
        "oracle.models_scanned": calls.get("oracle.extension", 0) / queries,
    }
    for metric, names in COUNTERS.items():
        if not missing & set(names):
            metrics[metric] = values[metric]
    return metrics, by_name
