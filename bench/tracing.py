"""Outside-in spans around the slpos layers, for the traced benchmark run.

A ``Tracer`` replaces the module attributes that ``slpos.cli``,
``slpos.harness`` and ``slpos.bounds`` look up at call time with timing
wrappers, and puts the originals back when it exits.  Nothing inside
``src/`` is edited: each span times one call of a public function from the
outside.  Spans nest, so a layer's self time is its wall time minus the
time of the spans it called; the self times of all spans add up to the
wall time of the root span, ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# (span, module, attribute).  Several attributes may share one span.
SPAN_TARGETS = (
    ("cli.main", "slpos.cli", "main"),
    ("harness", "slpos.cli", "run_ranging_sweep"),
    ("harness", "slpos.cli", "run_bounds_sweep"),
    ("harness", "slpos.cli", "run_positioning_demo"),
    ("harness.export_csv", "slpos.harness", "export_csv"),
    ("propagation.sample_trajectory", "slpos.harness", "sample_trajectory"),
    ("propagation.trace_paths", "slpos.harness", "trace_paths"),
    ("bounds.reb_waa", "slpos.harness", "reb_waa"),
    ("bounds.fim", "slpos.bounds", "fim"),
    ("bounds.crb_delay", "slpos.bounds", "crb_delay"),
    ("signal.synthesize_rx", "slpos.harness", "synthesize_rx"),
    ("estimation.delay_spectrum", "slpos.harness", "delay_spectrum"),
    ("estimation.estimate_toa", "slpos.harness", "estimate_toa"),
    ("estimation.low_confidence", "slpos.harness", "low_confidence"),
    ("estimation.rtt_range", "slpos.harness", "rtt_range"),
    ("positioning.linear_init", "slpos.harness", "linear_init"),
    ("positioning.ml_position", "slpos.harness", "ml_position"),
)

# Spans reported with calls, self time per call, share and failures.
LAYER_SPANS = tuple(dict.fromkeys(
    name for name, _, _ in SPAN_TARGETS if name not in ("cli.main", "harness", "harness.export_csv")))


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def _export_bytes(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["bytes"] += os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else ""))


def _paths(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["paths"] += len(result.paths)


def _bound_report(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["cell_paths"] += len(result.cell_indices)
    stats.counters["reb_all_inf"] += math.isinf(result.reb_all_paths)
    stats.counters["destructive"] += bool(result.destructive_interference)


def _low_confidence(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["true"] += bool(result)


def _toa(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["interpolated"] += bool(result.interpolated)


def _fix(stats: SpanStats, args: tuple, kwargs: dict, result: Any) -> None:
    stats.counters["iterations"] += result.iterations
    stats.counters["converged"] += bool(result.converged)


OBSERVERS: dict[str, Callable[[SpanStats, tuple, dict, Any], None]] = {
    "harness.export_csv": _export_bytes,
    "propagation.trace_paths": _paths,
    "bounds.reb_waa": _bound_report,
    "estimation.low_confidence": _low_confidence,
    "estimation.estimate_toa": _toa,
    "positioning.ml_position": _fix,
}


class Tracer:
    """Context manager that installs the span wrappers on entry and restores
    the original attributes on exit, also when the traced code raises.  It
    may be entered many times; the statistics accumulate."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._targets: list[tuple[Any, str, Any, Callable]] = []
        for span, module_name, attr in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                self._targets.append((module, attr, original, self._wrap(span, original)))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)
        self._stack.clear()

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stats = self.stats[span]
        stack = self._stack
        observe = OBSERVERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return wrapper


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-pass span metrics from ``passes`` traced passes that together
    took ``traced_wall_s`` seconds.  A layer the workload never calls
    reports zero calls and zero time."""
    s = tracer.stats
    out: dict[str, tuple[float, str]] = {}
    for span in LAYER_SPANS:
        st = s[span]
        out[f"{span}.calls"] = (st.calls / passes, "count")
        out[f"{span}.self_us_per_call"] = (_ratio(st.self_s, st.calls) * 1e6, "us")
        out[f"{span}.share"] = (100.0 * st.self_s / traced_wall_s, "%")
        out[f"{span}.failed"] = (st.failed / passes, "count")
    toa, reb, fix = s["estimation.estimate_toa"], s["bounds.reb_waa"], s["positioning.ml_position"]
    out["propagation.paths_per_snapshot"] = (
        _ratio(s["propagation.trace_paths"].counters["paths"], s["propagation.trace_paths"].calls), "count")
    out["bounds.cell_paths_mean"] = (_ratio(reb.counters["cell_paths"], reb.calls), "count")
    out["bounds.reb_all_inf_frac"] = (_ratio(reb.counters["reb_all_inf"], reb.calls), "ratio")
    out["bounds.destructive_count"] = (reb.counters["destructive"] / passes, "count")
    out["estimation.low_confidence.true_frac"] = (
        _ratio(s["estimation.low_confidence"].counters["true"], s["estimation.low_confidence"].calls),
        "ratio")
    out["estimation.estimate_toa.interpolated_frac"] = (
        _ratio(toa.counters["interpolated"], toa.calls), "ratio")
    out["positioning.ml_position.iterations_mean"] = (_ratio(fix.counters["iterations"], fix.calls), "count")
    out["positioning.ml_position.converged_frac"] = (_ratio(fix.counters["converged"], fix.calls), "ratio")
    out["harness.self_s"] = (s["harness"].self_s / passes, "s")
    out["harness.export_csv.s"] = (s["harness.export_csv"].total_s / passes, "s")
    out["harness.export_csv.bytes"] = (s["harness.export_csv"].counters["bytes"] / passes, "bytes")
    out["cli.main.self_s"] = (s["cli.main"].self_s / passes, "s")
    covered = sum(st.self_s for st in s.values())
    out["trace.self_coverage"] = (100.0 * covered / traced_wall_s, "%")
    return out

