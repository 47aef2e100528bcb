"""The metrics registry: primitives, instrumentation, determinism,
and the runner's metrics-artifact sidecars."""

import json
from dataclasses import dataclass

import pytest

from repro.obs import MetricsRegistry, capture_metrics
from repro.obs.metrics import Gauge
from repro.runner import ResultCache, Runner, Sweep, register, unregister


# -- primitives ---------------------------------------------------------------

def test_counter_inc():
    """Counters live in each simulator's ``stats``; a registry sums
    those of the simulators built inside its block, and no others."""
    from repro.sim.engine import Simulator

    with capture_metrics() as m:
        first, second = Simulator(), Simulator()
    unmetered = Simulator()
    first.stats.counter("a/b").add()
    second.stats.counter("a/b").add(4)
    unmetered.stats.counter("a/b").add(100)
    assert m.counter_value("a/b") == 5
    assert m.counters == {"a/b": 5}
    assert m.as_dict()["counters"] == {"a/b": 5}
    assert m.counter_value("missing") == 0


def test_gauge_throttle_collapses_identical_values():
    g = Gauge("q", interval_ps=1000)
    g.sample(0, 3)          # first point always records
    g.sample(10, 3)         # same value inside the interval: dropped
    g.sample(20, 4)         # changed value: recorded
    g.sample(30, 4)         # unchanged again: dropped
    g.sample(1500, 4)       # interval elapsed: recorded even if equal
    assert g.series == [(0, 3), (20, 4), (1500, 4)]


def test_histogram_summary_percentiles():
    m = MetricsRegistry()
    for v in range(1, 101):
        m.observe("lat", v)
    s = m.as_dict()["histograms"]["lat"]
    assert s["count"] == 100
    assert s["min"] == 1 and s["max"] == 100
    assert s["p50"] == pytest.approx(50, abs=1)
    assert s["p99"] == pytest.approx(99, abs=1)


def test_on_step_counts_event_classes_and_samples_queue_depth():
    from repro.sim.engine import Simulator

    with capture_metrics() as m:
        sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(100)
        yield sim.timeout(100)
        done.append(sim.now)

    sim.process(proc())
    sim.run(until=1_000)
    assert done
    assert sum(m.event_counts.values()) > 0
    depths = m.as_dict()["gauges"]["sim/evq_depth"]
    assert depths and all(isinstance(ts, int) for ts, _ in depths)


def test_as_dict_is_json_safe_and_merge_sums_counters():
    from repro.sim.engine import Simulator

    with capture_metrics() as m:
        sim = Simulator()
    sim.stats.counter("x").add(2)
    m.observe("h", 1.5)
    m.sample(sim, "g", 7)
    d = m.as_dict()
    json.dumps(d)   # must not raise
    merged = MetricsRegistry.merge_dicts([d, d, None, {}])
    assert merged["counters"]["x"] == 4


# -- instrumented workloads ---------------------------------------------------

def _fig6_m3v_counters():
    from repro.core.exps.fig6 import Fig6Point, run_fig6_point

    pt = Fig6Point("m3v_local", iterations=10, warmup=2)
    with capture_metrics() as m:
        run_fig6_point(pt)
    return m


def test_fig6_point_populates_dtu_and_tilemux_metrics():
    m = _fig6_m3v_counters()
    assert m.counter_value("dtu/sends") > 0
    assert m.counter_value("dtu/msgs_received") > 0
    assert m.counter_value("tilemux/ctx_switches") > 0
    names = m.as_dict()["gauges"]
    assert "tile0/tilemux/ready_q" in names
    assert "tile0/vdtu/core_req_q" in names
    switch = m.as_dict()["histograms"]["tile0/tilemux/switch_ps"]
    assert switch["count"] > 0 and switch["min"] > 0


def test_metrics_are_deterministic_across_runs():
    a = _fig6_m3v_counters().as_dict()
    b = _fig6_m3v_counters().as_dict()
    assert a == b


def _evq_samples(snapshot):
    return sum(len(points) for name, points in snapshot["gauges"].items()
               if name.endswith("sim/evq_depth"))


def test_one_block_keeps_each_simulators_series_apart():
    """A block around a multi-simulator run keeps every series that
    per-simulator blocks keep: the k-th simulator after the first
    samples under ``sim<k>/``, so no series restarts its clock."""
    from repro.core.exps.fig6 import fig6_points, run_fig6_point

    points = fig6_points(iterations=10, warmup=2)
    separate = []
    for pt in points:
        with capture_metrics() as single:
            run_fig6_point(pt)
        separate.append(single.as_dict())
    with capture_metrics() as m:
        Runner().run_sweep("fig6", points)
    combined = m.as_dict()

    assert _evq_samples(combined) == sum(map(_evq_samples, separate)) > 0
    assert "sim1/sim/evq_depth" in combined["gauges"]
    for name, points in combined["gauges"].items():
        stamps = [ts for ts, _ in points]
        assert stamps == sorted(stamps), name
    # one simulator per point: its series keep their plain names
    assert all(not name.startswith("sim1/")
               for snap in separate for name in snap["gauges"])
    # counters and histograms stay summed over the simulators
    assert combined["counters"] == MetricsRegistry.merge_dicts(
        separate)["counters"]
    for name, summary in combined["histograms"].items():
        assert summary["count"] == sum(
            snap["histograms"].get(name, {}).get("count", 0)
            for snap in separate), name


def test_m3x_slow_paths_and_controller_queue_are_metered():
    from repro.core.exps.figr import FigRPoint, run_figr_point

    with capture_metrics() as m:
        run_figr_point(FigRPoint("m3x", 0.0, messages=20))
    assert m.counter_value("m3x/switches") > 0
    assert m.counter_value("m3x/slow_paths") > 0
    gauges = m.as_dict()["gauges"]
    assert gauges["ctrl/slowpath_q"]            # sampled over time
    assert gauges["ctrl/sysc_q"]


def test_recovery_metrics_under_faults():
    from repro.core.exps.figr import FigRPoint, run_figr_point

    with capture_metrics() as m:
        run_figr_point(FigRPoint("m3v", 0.2, messages=10))
    assert m.counter_value("recovery/retransmits") > 0
    backoffs = [h for name, h in m.as_dict()["histograms"].items()
                if name.endswith("recovery/backoff_ps")]
    assert backoffs and backoffs[0]["count"] > 0


# -- runner metrics artifacts -------------------------------------------------

@dataclass(frozen=True)
class ToyCfg:
    idx: int


def _toy_point(cfg):
    from repro.sim.engine import Simulator

    sim = Simulator()

    def proc():
        sim.stats.counter("toy/ran").add()
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=1_000)
    return cfg.idx * 10


@pytest.fixture
def toy_sweep(tmp_path):
    fp = tmp_path / "toy_costs.py"
    fp.write_text("X = 1\n")
    register(Sweep("toy-obs", lambda: [ToyCfg(i) for i in range(2)],
                   _toy_point, lambda _p, vs: vs,
                   fingerprint_paths=(str(fp),)))
    yield
    unregister("toy-obs")


def test_runner_stores_metrics_sidecars_next_to_results(toy_sweep, tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    cold = Runner(jobs=1, cache=cache, metrics=True)
    cold.run_sweep("toy-obs")
    assert cold.simulated == 2
    for o in cold.last_outcomes:
        assert o.metrics is not None
        assert o.metrics["counters"]["toy/ran"] == 1
        sidecar = cache.artifact_path(o.key, "metrics")
        assert sidecar.exists()

    warm = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"),
                  metrics=True)
    warm.run_sweep("toy-obs")
    assert warm.simulated == 0 and warm.served == 2
    assert all(o.metrics["counters"]["toy/ran"] == 1
               for o in warm.last_outcomes)


def test_cache_hit_without_sidecar_resimulates(toy_sweep, tmp_path):
    root = tmp_path / "cache"
    plain = Runner(jobs=1, cache=ResultCache(root=root))
    plain.run_sweep("toy-obs")     # results cached, no metrics sidecars
    assert plain.simulated == 2

    metered = Runner(jobs=1, cache=ResultCache(root=root), metrics=True)
    metered.run_sweep("toy-obs")
    assert metered.simulated == 2  # hits without sidecars re-ran
    assert all(o.metrics is not None for o in metered.last_outcomes)

    warm = Runner(jobs=1, cache=ResultCache(root=root), metrics=True)
    warm.run_sweep("toy-obs")
    assert warm.simulated == 0 and warm.served == 2


def test_unmetered_run_ignores_sidecars(toy_sweep, tmp_path):
    root = tmp_path / "cache"
    Runner(jobs=1, cache=ResultCache(root=root), metrics=True) \
        .run_sweep("toy-obs")
    warm = Runner(jobs=1, cache=ResultCache(root=root))
    warm.run_sweep("toy-obs")
    assert warm.served == 2
    assert all(o.metrics is None for o in warm.last_outcomes)
