"""Runner robustness: failing points, killed workers, corrupt cache.

A sweep with a crashing point must *finish*: the failure is retried
once with its original seed, then recorded on the outcome (``failed``,
``error``) while every sibling still simulates and caches.  A worker
killed mid-pool (``BrokenProcessPool``) gets the same treatment — its
orphaned points are re-run in-process.  Cache entries that exist but
cannot be parsed (truncated by a crash, hand-edited) degrade to a
warned miss instead of aborting the sweep.
"""

import json
import multiprocessing
import os
from dataclasses import dataclass

import pytest

from repro.runner import ResultCache, Runner, Sweep, register, unregister


@dataclass(frozen=True)
class RobCfg:
    idx: int


RUNS = []


def _flaky_point(cfg):
    """Crashes the first time index 1 runs; succeeds on retry."""
    RUNS.append(cfg.idx)
    if cfg.idx == 1 and RUNS.count(1) == 1:
        raise RuntimeError("transient crash")
    return {"v": cfg.idx}


def _crash_point(cfg):
    """Index 1 crashes deterministically, every time."""
    RUNS.append(cfg.idx)
    if cfg.idx == 1:
        raise ValueError("deliberate crash")
    return {"v": cfg.idx}


def _killer_point(cfg):
    """Index 1 kills its pool worker outright; the in-process retry
    (no parent process) succeeds."""
    if cfg.idx == 1 and multiprocessing.parent_process() is not None:
        os._exit(17)
    return {"v": cfg.idx}


def _points():
    return [RobCfg(i) for i in range(3)]


def _reduce(_points, values):
    return values


@pytest.fixture
def rob_sweeps(tmp_path):
    fp = tmp_path / "fp.py"
    fp.write_text("X = 1\n")
    for name, fn in (("rob-flaky", _flaky_point),
                     ("rob-crash", _crash_point),
                     ("rob-kill", _killer_point)):
        register(Sweep(name, _points, fn, _reduce,
                       fingerprint_paths=(str(fp),)))
    RUNS.clear()
    yield
    for name in ("rob-flaky", "rob-crash", "rob-kill"):
        unregister(name)


def test_transient_crash_is_retried_with_same_seed(rob_sweeps):
    runner = Runner(jobs=1)
    values = runner.run_sweep("rob-flaky")
    assert values == [{"v": 0}, {"v": 1}, {"v": 2}]
    assert runner.failed == 0 and not runner.failures
    assert RUNS.count(1) == 2      # first attempt + successful retry


def test_persistent_crash_is_recorded_not_fatal(rob_sweeps, tmp_path, capsys):
    runner = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
    values = runner.run_sweep("rob-crash")
    # the sweep finished; the reducer saw None in the failed slot
    assert values == [{"v": 0}, None, {"v": 2}]
    assert runner.failed == 1
    (outcome,) = runner.failures
    assert outcome.spec.sweep == "rob-crash" and outcome.spec.index == 1
    assert outcome.failed and "ValueError: deliberate crash" in outcome.error
    assert "failed after retry" in capsys.readouterr().err

    # siblings were cached; the failed point is re-attempted next run
    RUNS.clear()
    warm = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
    warm.run_sweep("rob-crash")
    assert warm.served == 2 and warm.failed == 1
    assert RUNS == [1, 1]          # only the crasher re-ran (plus retry)


def test_killed_worker_points_are_rerun_in_process(rob_sweeps):
    runner = Runner(jobs=2)
    values = runner.run_sweep("rob-kill")
    assert values == [{"v": 0}, {"v": 1}, {"v": 2}]
    assert runner.failed == 0


@pytest.mark.parametrize("garbage", ["{\"truncated\": ", "not json at all\n",
                                     "{\"no_value\": 1}\n"])
def test_corrupt_cache_entry_warns_and_resimulates(rob_sweeps, tmp_path,
                                                  capsys, garbage):
    root = tmp_path / "cache"
    cold = Runner(jobs=1, cache=ResultCache(root=root))
    cold.run_sweep("rob-flaky")
    entries = sorted(root.rglob("*.json"))
    assert len(entries) == 3
    entries[0].write_text(garbage)

    cache = ResultCache(root=root)
    warm = Runner(jobs=1, cache=cache)
    values = warm.run_sweep("rob-flaky")
    assert values == [{"v": 0}, {"v": 1}, {"v": 2}]
    assert warm.served == 2 and warm.simulated == 1
    assert cache.corrupt == 1
    assert "re-simulating" in capsys.readouterr().err
    # the re-run overwrote the bad entry: next run is all hits
    final = Runner(jobs=1, cache=ResultCache(root=root))
    final.run_sweep("rob-flaky")
    assert final.served == 3 and final.simulated == 0


def test_failed_points_are_never_cached(rob_sweeps, tmp_path):
    root = tmp_path / "cache"
    runner = Runner(jobs=1, cache=ResultCache(root=root))
    runner.run_sweep("rob-crash")
    # two sibling entries on disk, nothing for the crasher
    assert len(list(root.rglob("*.json"))) == 2
    for path in root.rglob("*.json"):
        entry = json.loads(path.read_text())
        assert entry["value"]["v"] in (0, 2)
