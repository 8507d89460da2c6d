"""Spans at hetquant's layer boundaries, recorded from outside the package.

A traced run replaces the module-level names through which hetquant calls
its own layers (``hetquant.measure.local_variance``,
``hetquant.sweep.generate_segmented``, ``hetquant.cli.read_csv`` and so
on) with timing wrappers, and puts the originals back afterwards. Nothing
inside the package changes. Spans stay in memory until the run ends. A
span's self time is its duration minus the durations of its direct child
spans; calls are sequential, so children never overlap.

Only calls made in this process are seen, so traced sweeps run with one
worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, class or None, attribute, span name, counter). A counter maps
# (args, result) of one call to the counts that call adds to its span.
HOOKS = (
    ("hetquant.cli", None, "main", "cli", None),
    ("hetquant.cli", None, "generate_segmented", "series.generate", None),
    ("hetquant.sweep", None, "generate_segmented", "series.generate", None),
    ("hetquant.cli", None, "read_csv", "series.parse",
     lambda args, result: {"rows": len(result)}),
    ("hetquant.cli", None, "series_csv_bytes", "series.format",
     lambda args, result: {"csv_bytes": len(result)}),
    ("hetquant.measure", None, "local_variance", "local_variance",
     lambda args, result: _kernel_counts(args[0], result)),
    ("hetquant.sweep", None, "local_variance", "local_variance",
     lambda args, result: _kernel_counts(args[0], result)),
    ("hetquant.measure", None, "estimate_pdf", "distribution.estimate_pdf", None),
    ("hetquant.sweep", None, "estimate_pdf", "distribution.estimate_pdf", None),
    ("hetquant.cli", None, "read_distribution_csv", "distribution.read",
     lambda args, result: {"bins": result.bins}),
    ("hetquant.cli", None, "distribution_csv_bytes", "distribution.format", None),
    ("hetquant.cli", None, "evaluate", "divergence.evaluate", None),
    ("hetquant.divergence", None, "evaluate", "divergence.evaluate", None),
    ("hetquant.cli", None, "measure", "measure", None),
    ("hetquant.cli", None, "run_sweep", "sweep.run",
     lambda args, result: {"cells": len({(r.k, r.window, r.seed) for r in result.rows})}),
    ("hetquant.sweep", "SweepReport", "summary_csv_bytes", "sweep.summary", None),
    ("hetquant.sweep", "SweepReport", "report_csv_bytes", "sweep.report_format", None),
)


def _kernel_counts(series, result) -> dict:
    # Computed from array sizes, not measured: float64 samples read plus
    # float64 variances written. Cache traffic and temporaries are ignored.
    return {"samples": len(series), "bytes_computed": 8 * (len(series) + len(result))}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


@dataclass
class LayerTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call, with the span that caused it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._clock(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def totals(self) -> dict[str, LayerTotal]:
        """Calls, total time, self time and summed counts per span name."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, LayerTotal] = {}
        for span, children in zip(self.spans, child_s):
            layer = out.setdefault(span.name, LayerTotal())
            duration = span.end - span.start
            layer.calls += 1
            layer.total_s += duration
            layer.self_s += duration - children
            for key, value in span.counts.items():
                layer.counts[key] = layer.counts.get(key, 0) + value
        return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers on every hook; restore on exit."""
    saved = []
    try:
        for module, cls, attr, name, counter in HOOKS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _total(layer):
    return lambda t: t.get(layer, LayerTotal()).total_s


def _self(layer):
    return lambda t: t.get(layer, LayerTotal()).self_s


def _calls(layer):
    return lambda t: t.get(layer, LayerTotal()).calls


def _count(layer, key):
    return lambda t: t.get(layer, LayerTotal()).counts.get(key, 0)


# Per-layer metric -> (unit, value from the layer totals). Counts must
# repeat exactly between traced passes over the same inputs.
#
# Which end-to-end number each layer should move (workload in brackets):
#   series.parse_s, series.rows        analyze_s, peak_rss_mb [file-roundtrip];
#                                      nothing on sweep-grid
#   series.format_s, series.csv_bytes  generate_s [file-roundtrip]
#   series.generate_s                  sweep_s, a few percent [sweep-grid]
#   local_variance.*                   sweep_s, sweep_parallel_s [sweep-grid];
#                                      barely analyze_s [file-roundtrip]
#   distribution.estimate_pdf_s        sweep_s [sweep-grid]
#   distribution.read_s, bins_read     divergence_cli_ms [divergence-suite]
#   distribution.format_s              analyze_s, slightly [file-roundtrip]
#   divergence.evaluate_s, _calls      divergence_evals_per_s [divergence-suite]
#   measure.s, measure.self_s          analyze_s [file-roundtrip]
#   sweep.*                            sweep_s; run_self_s against
#                                      sweep_parallel_s [sweep-grid]
#   cli.self_s                         every CLI timing [all]
# Each workload's iteration_s is the sum of its CLI timings (plus the
# library evaluate calls on divergence-suite), so it moves with them.
LAYER_METRICS = {
    "series.parse_s": ("s", _total("series.parse")),
    "series.rows": ("count", _count("series.parse", "rows")),
    "series.format_s": ("s", _total("series.format")),
    "series.csv_bytes": ("bytes", _count("series.format", "csv_bytes")),
    "series.generate_s": ("s", _total("series.generate")),
    "local_variance.s": ("s", _total("local_variance")),
    "local_variance.calls": ("count", _calls("local_variance")),
    "local_variance.samples": ("count", _count("local_variance", "samples")),
    "local_variance.bytes_computed": ("bytes", _count("local_variance", "bytes_computed")),
    "distribution.estimate_pdf_s": ("s", _total("distribution.estimate_pdf")),
    "distribution.read_s": ("s", _total("distribution.read")),
    "distribution.bins_read": ("count", _count("distribution.read", "bins")),
    "distribution.format_s": ("s", _total("distribution.format")),
    "divergence.evaluate_s": ("s", _total("divergence.evaluate")),
    "divergence.evaluate_calls": ("count", _calls("divergence.evaluate")),
    "measure.s": ("s", _total("measure")),
    "measure.self_s": ("s", _self("measure")),
    "sweep.run_self_s": ("s", _self("sweep.run")),
    "sweep.cells": ("count", _count("sweep.run", "cells")),
    "sweep.summary_s": ("s", _total("sweep.summary")),
    "sweep.report_format_s": ("s", _total("sweep.report_format")),
    "cli.self_s": ("s", _self("cli")),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    totals = tracer.totals()
    return {name: get(totals) for name, (_, get) in LAYER_METRICS.items()}
