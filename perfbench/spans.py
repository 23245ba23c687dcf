"""Outside-in tracing of volcount's layers.

The traced run rebinds the module-level names the package looks its callees
up under, so every call into a layer records a span (name, start, end,
parent, instance) without any change to the package.  Spans stay in memory
and are written when the run ends.  A name that no longer exists, for
example after a rename, is reported as absent together with the metrics
that need it; it never stops the run.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# span name -> "module:attribute" that the package looks the callee up under
TARGETS = {
    "bunches": "volcount.driver:enumerate_bunches",
    "model.polytope": "volcount.driver:bunch_polytope",
    "estimate.round": "volcount.estimate:round_polytope",
    "estimate.walk": "volcount.estimate:estimate_volume",
    "exact": "volcount.exact:exact_volume",
    "count": "volcount.count:count_integer_points",
    "lp.theory": "volcount.bunches:lp_feasible",
    "lp.round_optimize": "volcount.estimate:lp_optimize",
    "lp.round_chebyshev": "volcount.estimate:chebyshev_center",
    "lp.exact_optimize": "volcount.exact:lp_optimize",
    "lp.exact_chebyshev": "volcount.exact:chebyshev_center",
    "lp.integer_bounds": "volcount.lp:integer_bounds",
    "exact.linprog": "volcount.exact:linprog",
}
LP_SPANS = ("lp.theory", "lp.round_optimize", "lp.round_chebyshev",
            "lp.exact_optimize", "lp.exact_chebyshev", "lp.integer_bounds")

# metric -> (unit, better, what it should move).  The benchmark's
# BENCHMARK.json lists the same names and units.
LAYER_METRICS = {
    "parse.s": ("s", "lower", "setup_s on all workloads"),
    "bunches.s": ("s", "lower", "wall_s on many-bunches; no change elsewhere"),
    "bunches.self_s": ("s", "lower", "wall_s on many-bunches; no change elsewhere"),
    "bunches.count": ("count", "lower", "wall_s on many-bunches; no change elsewhere"),
    "bunches.theory_lps": ("count", "lower", "wall_s on many-bunches; no change elsewhere"),
    "bunches.yield": ("ratio", "higher", "wall_s on many-bunches; no change elsewhere"),
    "lp.calls": ("count", "lower", "wall_s on many-bunches"),
    "lp.s": ("s", "lower", "wall_s on many-bunches"),
    "lp.us_per_call": ("us", "lower", "wall_s on many-bunches"),
    "estimate.round_s": ("s", "lower", "wall_s on mc-volume (small share)"),
    "estimate.round_calls": ("count", "lower", "wall_s on mc-volume (small share)"),
    "estimate.walk_s": ("s", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.walk_calls": ("count", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.steps": ("count", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.us_per_step": ("us", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.fresh_ratio": ("ratio", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.avg_coefficient": ("count", "lower", "wall_s and est_rel_err on mc-volume"),
    "estimate.rel_err": ("ratio", "lower", "est_rel_err on mc-volume: it is that figure"),
    "exact.s": ("s", "lower", "wall_s on exact-volume"),
    "exact.self_s": ("s", "lower", "wall_s on exact-volume"),
    "exact.bodies": ("count", "lower", "wall_s on exact-volume"),
    "exact.ms_per_body": ("ms", "lower", "wall_s on exact-volume"),
    "exact.linprog_calls": ("count", "lower", "wall_s on exact-volume"),
    "exact.linprog_s": ("s", "lower", "wall_s on exact-volume"),
    "count.s": ("s", "lower", "wall_s on lattice-count"),
    "count.bodies": ("count", "lower", "wall_s on lattice-count"),
    "count.ms_per_body": ("ms", "lower", "wall_s on lattice-count"),
    "count.lp_bounds_calls": ("count", "lower", "wall_s on lattice-count"),
    "model.polytope_s": ("s", "lower", "nothing expected: a guard"),
    "driver.self_s": ("s", "lower", "nothing expected: a guard"),
    "trace.overhead_s": ("s", "lower", "no claim: traced minus untraced wall"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: str
    data: Any = None


@dataclass
class Tracer:
    """Records spans while installed; ``targets`` maps span names to
    ``module:attribute`` strings (defaults to :data:`TARGETS`)."""

    targets: dict[str, str] = field(default_factory=lambda: dict(TARGETS))
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    instance: str = ""
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self) -> None:
        self.absent = []
        for name, where in self.targets.items():
            module_name, attr = where.split(":")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; the result's summary goes to span.data."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.instance)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
            if name == "bunches":
                # run() lists the generator; consume it here so the span
                # covers the enumeration, not just creating the generator.
                result = list(result)
            span.end = time.perf_counter()
            span.data = _summary(name, result, args, kwargs)
        finally:
            if not span.end:
                span.end = time.perf_counter()
            self._stack.pop()
        return iter(result) if name == "bunches" else result

    def _wrap(self, name: str, original: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        return traced


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON line per span; ``parent`` indexes spans of the same pass."""
    with open(path, "w", encoding="utf-8") as out:
        for pass_no, spans in enumerate(passes):
            for i, s in enumerate(spans):
                out.write(json.dumps({"pass": pass_no, "id": i, "name": s.name,
                                      "start": s.start, "end": s.end, "parent": s.parent,
                                      "instance": s.instance, "data": s.data}) + "\n")


def _summary(name: str, result, args, kwargs):
    """Counts the metrics need from a call's result; None when the
    result no longer has the expected shape."""
    try:
        if name == "bunches":
            return len(result)
        if name == "estimate.walk":
            samples = args[1] if len(args) > 1 else kwargs["samples_per_phase"]
            burnin = kwargs.get("burnin", args[4] if len(args) > 4 else 0)
            ledger = result.ledger
            return {"fresh": ledger.fresh_total,
                    "steps": ledger.fresh_total + burnin * ledger.num_phases,
                    "budget": samples * ledger.num_phases}
    except (AttributeError, IndexError, KeyError, TypeError):
        return None
    return None


def layer_metrics(spans: list[Span], absent: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the metrics left absent
    because a span they need could not be installed or summarized."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    dur: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    data: dict[str, list] = {}
    for i, s in enumerate(spans):
        d = s.end - s.start
        dur[s.name] = dur.get(s.name, 0.0) + d
        self_t[s.name] = self_t.get(s.name, 0.0) + d - child_time[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        data.setdefault(s.name, []).append(s.data)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    lp_calls = sum(calls.get(n, 0) for n in LP_SPANS)
    lp_s = sum(dur.get(n, 0.0) for n in LP_SPANS)
    walks = data.get("estimate.walk", [])
    steps = sum(w["steps"] for w in walks) if None not in walks else None
    fresh = sum(w["fresh"] for w in walks) if None not in walks else None
    budget = sum(w["budget"] for w in walks) if None not in walks else None
    bunches = data.get("bunches", [])
    n_bunches = sum(bunches) if None not in bunches else None

    values: dict[str, tuple[Optional[float], tuple[str, ...]]] = {
        "bunches.s": (dur.get("bunches", 0.0), ("bunches",)),
        "bunches.self_s": (self_t.get("bunches", 0.0), ("bunches", "lp.theory")),
        "bunches.count": (n_bunches, ("bunches",)),
        "bunches.theory_lps": (calls.get("lp.theory", 0), ("lp.theory",)),
        "bunches.yield": (None if n_bunches is None else per(n_bunches, calls.get("lp.theory", 0)),
                          ("bunches", "lp.theory")),
        "lp.calls": (lp_calls, LP_SPANS),
        "lp.s": (lp_s, LP_SPANS),
        "lp.us_per_call": (per(lp_s, lp_calls, 1e6), LP_SPANS),
        "estimate.round_s": (dur.get("estimate.round", 0.0), ("estimate.round",)),
        "estimate.round_calls": (calls.get("estimate.round", 0), ("estimate.round",)),
        "estimate.walk_s": (dur.get("estimate.walk", 0.0), ("estimate.walk",)),
        "estimate.walk_calls": (calls.get("estimate.walk", 0), ("estimate.walk",)),
        "estimate.steps": (steps, ("estimate.walk",)),
        "estimate.us_per_step": (None if steps is None else per(dur.get("estimate.walk", 0.0), steps, 1e6),
                                 ("estimate.walk",)),
        "estimate.fresh_ratio": (None if fresh is None else per(fresh, budget), ("estimate.walk",)),
        "exact.s": (dur.get("exact", 0.0), ("exact",)),
        "exact.self_s": (self_t.get("exact", 0.0),
                         ("exact", "lp.exact_optimize", "lp.exact_chebyshev", "exact.linprog")),
        "exact.bodies": (calls.get("exact", 0), ("exact",)),
        "exact.ms_per_body": (per(dur.get("exact", 0.0), calls.get("exact", 0), 1e3), ("exact",)),
        "exact.linprog_calls": (calls.get("exact.linprog", 0), ("exact.linprog",)),
        "exact.linprog_s": (dur.get("exact.linprog", 0.0), ("exact.linprog",)),
        "count.s": (dur.get("count", 0.0), ("count",)),
        "count.bodies": (calls.get("count", 0), ("count",)),
        "count.ms_per_body": (per(dur.get("count", 0.0), calls.get("count", 0), 1e3), ("count",)),
        "count.lp_bounds_calls": (calls.get("lp.integer_bounds", 0), ("lp.integer_bounds",)),
        "model.polytope_s": (dur.get("model.polytope", 0.0), ("model.polytope",)),
        # run's own time: everything the wrapped layers under it do not cover
        "driver.self_s": (self_t.get("run", 0.0),
                          ("bunches", "model.polytope", "estimate.round", "estimate.walk",
                           "exact", "count")),
    }
    out: dict[str, float] = {}
    missing: list[str] = []
    for metric, (value, needs) in values.items():
        if value is None or any(n in absent for n in needs):
            missing.append(metric)
        else:
            out[metric] = float(value)
    return out, missing


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes (counts repeat exactly)."""
    keys = set().union(*passes) if passes else set()
    return {k: statistics.median(p[k] for p in passes if k in p) for k in sorted(keys)}
