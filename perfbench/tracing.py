"""Spans around the calls into each supercong layer, recorded from outside the package.

`install` rebinds the layer functions that `supercong.verifier` calls, plus
`supercong.eta.f_coefficients`, `cli.run_suite` and `cli.emit_report`, to
wrappers that record one span per call: layer, name, start, end, parent and
process.  Spans stay in memory.  Pool workers are forked from the traced
process, so they inherit the wrappers; the wrapped `verifier._run_task`
hands each worker's spans back to the parent attached to the task's outcome,
and the parent collects them from the report.

`layer_metrics` turns the spans into the per-layer figures.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from fractions import Fraction

# layer of each name bound in supercong.verifier that the benchmark wraps
VERIFIER_CALLS = {
    "gamma_p": "padic_gamma",
    "bailey_b1_check": "hypergeom.identity",
    "c3_check": "hypergeom.identity",
    "whipple_c1_check": "hypergeom.identity",
    "kilbourn_lhs": "hypergeom.series",
    "thm1_rhs": "hypergeom.series",
    "vanhamme_lhs": "hypergeom.series",
    "c3_rhs_closed": "hypergeom.series",
    "reduce_mod": "exact",
    "pochhammer": "exact",
    "half_harmonic2": "exact",
    "vp": "exact",
    "a_p": "eta",
    "count_N": "variety",
}

SPANS_ATTR = "_bench_spans"

# index of each field in a span tuple
ID, PARENT, LAYER, NAME, START, END, KEY = range(7)


class Tracer:
    """Span store of one process; forked workers get a copy and drain it per task."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.notes: dict[str, object] = {}  # span id -> key noted from inside the call
        self.count = 0

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{os.getpid()}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                note = self.notes.pop(span_id, None)
                self.spans.append((span_id, parent, layer, fn.__name__, start, end, note))

        return traced

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries; returns {"report": Report} once cli.run_suite has run."""
    from supercong import cli, eta, verifier

    gamma = verifier.gamma_p

    @functools.wraps(gamma)
    def gamma_p(x, p, k):
        tracer.notes[tracer.stack[-1]] = f"{Fraction(x)} {p} {k}"  # for repeat_share
        return gamma(x, p, k)

    verifier.gamma_p = gamma_p
    for name, layer in VERIFIER_CALLS.items():
        setattr(verifier, name, tracer.wrap(layer, getattr(verifier, name)))
    for name in dir(verifier):
        if name.startswith("check_"):
            setattr(verifier, name, tracer.wrap("verifier", getattr(verifier, name)))

    table = eta.f_coefficients

    @functools.wraps(table)
    def f_coefficients(bound):
        misses = table.cache_info().misses
        try:
            return table(bound)
        finally:  # a call that misses the lru_cache builds the table
            tracer.notes[tracer.stack[-1]] = table.cache_info().misses > misses

    eta.f_coefficients = tracer.wrap("eta.table", f_coefficients)

    run_task = verifier._run_task

    @functools.wraps(run_task)
    def traced_task(task):
        outcome = run_task(task)
        object.__setattr__(outcome, SPANS_ATTR, tracer.drain())
        return outcome

    # pool.map pickles the task function by name, so the wrapper must be the module attribute
    verifier._run_task = traced_task

    captured: dict = {}
    run_suite = cli.run_suite

    @functools.wraps(run_suite)
    def traced_suite(*args, **kwargs):
        captured["report"] = report = run_suite(*args, **kwargs)
        return report

    cli.run_suite = tracer.wrap("verifier.suite", traced_suite)
    cli.emit_report = tracer.wrap("cli.emit", cli.emit_report)
    return captured


def collect(tracer: Tracer, report) -> list[tuple]:
    """All spans of a traced run: the parent's own and those returned with each outcome."""
    spans = list(tracer.spans)
    for outcome in report.outcomes:
        spans.extend(getattr(outcome, SPANS_ATTR, ()))
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], [])) for s in spans
    }


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times from one traced sweep."""
    own = self_times(spans)
    by_layer: dict[str, list[tuple]] = {}
    for s in spans:
        by_layer.setdefault(s[LAYER], []).append(s)

    def calls(layer):
        return len(by_layer.get(layer, ()))

    def busy(layer):
        return sum(own[s[ID]] for s in by_layer.get(layer, ()))

    out: dict[str, float] = {}
    gamma = by_layer.get("padic_gamma", [])
    seen: set = set()
    repeats = 0
    for s in sorted(gamma, key=lambda s: s[START]):
        key = (s[ID].split(":")[0], s[KEY])  # per process
        repeats += key in seen
        seen.add(key)
    out["padic_gamma.calls"] = len(gamma)
    out["padic_gamma.busy_s"] = busy("padic_gamma")
    out["padic_gamma.max_call_s"] = max((s[END] - s[START] for s in gamma), default=0.0)
    out["padic_gamma.repeat_share"] = repeats / len(gamma) if gamma else 0.0
    for layer in ("hypergeom.identity", "hypergeom.series", "exact", "variety"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.busy_s"] = busy(layer)

    builds = [s for s in by_layer.get("eta.table", []) if s[KEY]]
    out["eta.table_builds"] = len(builds)
    out["eta.table_build_s"] = sum(s[END] - s[START] for s in builds)
    out["eta.lookups"] = calls("eta")
    out["eta.busy_s"] = busy("eta") + busy("eta.table")
    out["verifier.self_s"] = busy("verifier")
    out["cli.emit_s"] = sum(s[END] - s[START] for s in by_layer.get("cli.emit", []))
    return out


def self_time_by_layer(metrics: dict[str, float]) -> dict[str, float]:
    """The self time of each layer, for naming the largest."""
    return {
        "padic_gamma": metrics["padic_gamma.busy_s"],
        "hypergeom.identity": metrics["hypergeom.identity.busy_s"],
        "hypergeom.series": metrics["hypergeom.series.busy_s"],
        "exact": metrics["exact.busy_s"],
        "eta": metrics["eta.busy_s"],
        "variety": metrics["variety.busy_s"],
        "verifier": metrics["verifier.self_s"],
    }
