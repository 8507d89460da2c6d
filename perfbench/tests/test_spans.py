"""Span self-time subtraction, hook restoration and repeatable counts."""

import importlib

import hetquant.cli
import hetquant.sweep
import pytest

from spans import LAYER_METRICS, Tracer, instrument, layer_metrics


def clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_only():
    # outer 0..10 holds inner 1..3 and 4..6; each inner holds a 0.5 s leaf.
    tracer = Tracer(clock(0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    totals = tracer.totals()
    assert totals["outer"].total_s == 10.0
    assert totals["outer"].self_s == 10.0 - (3.0 - 1.0) - (6.0 - 4.0)
    assert totals["inner"].calls == 2
    assert totals["inner"].total_s == 4.0
    assert totals["inner"].self_s == 4.0 - 0.5 - 0.5
    assert totals["leaf"].self_s == totals["leaf"].total_s == 1.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock(0.0, 2.0, 5.0, 6.0))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("fail", fail)
    with pytest.raises(ValueError):
        failing()
    tracer.wrap("after", lambda: None)()
    totals = tracer.totals()
    assert totals["fail"].total_s == 2.0
    assert tracer.spans[1].parent is None


def test_instrument_restores_hooks_even_on_error():
    # The package root re-exports the function measure(), which hides the
    # submodule of the same name from attribute access.
    measure_module = importlib.import_module("hetquant.measure")
    originals = (hetquant.cli.main, measure_module.local_variance,
                 hetquant.sweep.SweepReport.summary_csv_bytes)
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert measure_module.local_variance is not originals[1]
            raise RuntimeError
    assert (hetquant.cli.main, measure_module.local_variance,
            hetquant.sweep.SweepReport.summary_csv_bytes) == originals


def _traced_counts(tmp_path):
    series, hist = str(tmp_path / "s.csv"), str(tmp_path / "h.csv")
    report = str(tmp_path / "r.csv")
    with instrument(Tracer()) as tracer:
        assert hetquant.cli.main(["generate", "--samples", "2048", "--num-sigmas", "4",
                                  "--seed", "5", "--out", series]) == 0
        assert hetquant.cli.main(["analyze", "--input", series, "--window", "32",
                                  "--bins", "16", "--emit-distribution", hist]) == 0
        assert hetquant.cli.main(["divergence", "--p", hist, "--q", hist, "--metric", "kl"]) == 0
        assert hetquant.cli.main(["sweep", "--sigma-counts", "1,2", "--windows", "32,64",
                                  "--seeds", "1,2,3", "--samples", "1024", "--out", report]) == 0
    metrics = layer_metrics(tracer)
    return {name: metrics[name] for name, (unit, _) in LAYER_METRICS.items() if unit != "s"}


def test_counts_repeat_exactly(tmp_path, capsys):
    first = _traced_counts(tmp_path)
    assert first == _traced_counts(tmp_path)
    assert first["series.rows"] == 2048
    assert first["local_variance.calls"] == 1 + 2 * 2 * 3
    assert first["local_variance.samples"] == 2048 + 1024 * 12
    assert first["distribution.bins_read"] == 32
    assert first["divergence.evaluate_calls"] == 1
    assert first["sweep.cells"] == 12
