"""Unit tests for the measurement infrastructure."""

import pytest

from repro.sim.stats import Counter, Histogram, StatRegistry, percentile


def test_counter_accumulates():
    c = Counter("x")
    c.add()
    c.add(5)
    assert c.value == 6


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").add(-1)


def test_histogram_basic_stats():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.record(v)
    assert h.count == 4
    assert h.mean == 2.5
    assert h.min == 1.0 and h.max == 4.0
    assert h.total == 10.0


def test_histogram_stdev():
    h = Histogram("lat")
    for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        h.record(v)
    assert h.stdev == pytest.approx(2.138, abs=0.01)


def test_histogram_empty_stats_are_nan():
    import math

    h = Histogram("empty")
    assert math.isnan(h.mean)
    assert math.isnan(percentile(sorted(h.samples), 0.5))
    assert math.isnan(h.min)
    assert math.isnan(h.max)
    assert h.count == 0 and h.stdev == 0.0
    assert h.summary() == {"count": 0}


def test_empty_histogram_renders_as_dash():
    """Regression: a report over an experiment that recorded zero
    samples must render, with an em-dash where the number would be."""
    from repro.core.report import bar_chart, series_chart

    chart = bar_chart("t", {"warm": 4.2, "cold": Histogram("none").mean})
    assert "—" in chart and "4.2" in chart and "nan" not in chart
    table = series_chart("t", {"sys": {1: 2.0, 2: float("nan")}})
    assert "—" in table and "nan" not in table


def test_histogram_quantile_range_checked():
    for q in (1.5, -0.01, -1.0):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)
        with pytest.raises(ValueError):
            percentile([], q)


def test_percentile_nearest_rank():
    xs = [10, 20, 30, 40, 50]
    assert percentile(xs, 0.0) == 10.0
    assert percentile(xs, 0.5) == 30.0
    assert percentile(xs, 0.99) == 50.0
    assert percentile([7], 0.999) == 7.0


def test_percentile_of_empty_sample_is_nan():
    """An empty sample claims no latency: NaN, not 0.0 (which would
    read as a perfect p99 and pass any SLO ceiling)."""
    import math

    assert math.isnan(percentile([], 0.5))
    assert math.isnan(percentile([], 0.99))


def test_figure_tables_share_one_percentile():
    from repro.core.exps import figr, figs
    from repro.obs import MetricsRegistry

    assert figs.percentile is percentile and figr.percentile is percentile

    # the metrics registry's histogram summaries use the same rule
    samples = [7, 3, 12, 3, 40, 18, 5, 21, 9, 1, 33]
    reg = MetricsRegistry()
    for v in samples:
        reg.observe("lat", v)
    summary = reg.as_dict()["histograms"]["lat"]
    assert summary["p50"] == percentile(sorted(samples), 0.50)
    assert summary["p99"] == percentile(sorted(samples), 0.99)
    assert summary["count"] == len(samples)
    assert (summary["min"], summary["max"]) == (1.0, 40.0)


def test_registry_reuses_instances():
    reg = StatRegistry()
    assert reg.counter("a") is reg.counter("a")


def test_registry_snapshot():
    reg = StatRegistry()
    reg.counter("msgs").add(3)
    assert reg.snapshot() == {"count/msgs": 3}


def test_counter_value_missing_is_zero():
    assert StatRegistry().counter_value("nope") == 0
