"""What ``scripts/check_perf.sh`` relies on, held in tier-1.

* **exact work** — the engine events of engine churn, three
  ``--quick`` sweeps and the 64-tile fig9 point are pinned at their
  exact counts.  The simulation is deterministic, so a changed count
  is changed work, never noise; the CI ``tests`` job repeats these
  pins on three Pythons and the ``parallel`` job under another
  ``PYTHONHASHSEED`` and the causality check.
* **the adaptive arm** — figS's EDF + rebalancer arm at a size that
  live-migrates: its outputs and engine events are pinned, so the
  rebalancer's constants cannot drift unnoticed.
* **the verdict trips** — the gate's exit status is
  ``bench/compare.py``'s.  Two synthetic ``runs.jsonl`` files in
  ``bench/run.py``'s record shape show that a change side 20% slower
  on ``wall_s`` fails it and identical sides pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exps.fig6 import fig6_points
from repro.core.exps.fig8 import fig8_points
from repro.core.exps.fig9 import Fig9Point, fig9_points, run_fig9_point
from repro.core.exps.figs import FigSPoint, run_figs_point
from repro.runner import Runner
from repro.sim import Channel, Simulator, engine

REPO = Path(__file__).resolve().parents[1]


def engine_churn(pairs: int = 10, rounds: int = 2000) -> None:
    """Engine-only churn: channel ping-pong plus timer ticks, with no
    model code on top (the int-yield tick fast path, channel put/get
    handoff and same-timestamp bucket collisions across pairs)."""
    sim = Simulator()
    chans = [Channel(sim, name=f"churn{i}") for i in range(pairs)]

    def ping(ch):
        for i in range(rounds):
            yield 7            # int fast path, collides across pairs
            yield ch.put(i)

    def pong(ch):
        for _ in range(rounds):
            yield ch.get()
            yield 3

    for ch in chans:
        sim.process(ping(ch), name="churn-ping")
        sim.process(pong(ch), name="churn-pong")
    sim.run()


#: workload -> exact engine events of one run: engine churn, the
#: ``--quick`` sizes of fig6, fig8 and fig9, and the 64-tile fig9 point
#: (its causality-checked twin is pinned in test_parallel_equivalence)
EVENTS_PINNED = {
    "engine_churn": (engine_churn, 80_040),
    "fig6_quick": (lambda: Runner().run_sweep(
        "fig6", fig6_points(iterations=10, warmup=2)), 1_686),
    "fig8_quick": (lambda: Runner().run_sweep(
        "fig8", fig8_points(repetitions=5, warmup=1)), 2_182),
    "fig9_quick": (lambda: Runner().run_sweep("fig9", fig9_points(
        tile_counts=[1, 2], trace="find", runs=1, find_dirs=4,
        find_files=6, sqlite_txns=4)), 70_616),
    "fig9_64": (lambda: run_fig9_point(Fig9Point(
        "m3v", 64, trace="find", runs=1, find_dirs=2, find_files=3)),
                88_598),
}


@pytest.mark.parametrize("name", sorted(EVENTS_PINNED))
def test_engine_events_are_pinned(name):
    workload, events = EVENTS_PINNED[name]
    before = engine.events_processed()
    workload()
    assert engine.events_processed() - before == events


#: figS's adaptive arm (EDF + rebalancer on the packed, skewed layout)
#: at 10 requests per gateway, where the m3v-migration-storm campaign's
#: first phase migrates: its outputs and engine events.  The events fell
#: from 206,249 by exactly the completion events of the 3,793 sleep and
#: ACK timer processes that fired, now engine timers, plus two events
#: for each of the 6 dropped packets, which no longer spawn a no-op
#: process; every simulated event stayed put.
ADAPTIVE_PINNED = {"completed": 30, "slo_met": 30, "shed": 0,
                   "migrations": 6, "migrate_refused": 40,
                   "span_ms": 16.269899255}
ADAPTIVE_EVENTS = 202_444


def test_adaptive_arm_is_pinned():
    pt = FigSPoint("m3v", 1.0, requests=10, sched="edf", rebalance=True,
                   pack=2, skew=0.8)
    before = engine.events_processed()
    out = run_figs_point(pt)
    assert engine.events_processed() - before == ADAPTIVE_EVENTS
    assert {k: out[k] for k in ADAPTIVE_PINNED} == ADAPTIVE_PINNED


# -- the verdict -----------------------------------------------------------------

def _record(wall_s: float) -> dict:
    """One ``bench/run.py --trace 0`` run record of one workload."""
    def metric(value):
        return {"value": value, "q1": value, "q3": value, "n": 3,
                "samples": [value] * 3}

    return {"workload": "rpc_m3v", "seed": 1, "smoke": False, "trace": 0,
            "attempted": 4, "failed": 0, "problems": [],
            "outputs": {"seed1": {"rpcs": 20000}}, "events": 1_000_000,
            "e2e": {"wall_s": metric(wall_s), "setup_s": metric(0.15),
                    "peak_rss_mb": metric(24.0)}}


def _compare(tmp_path, parent_walls, change_walls):
    for side, walls in (("parent", parent_walls), ("change", change_walls)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "runs.jsonl").write_text(
            "".join(json.dumps(_record(w)) + "\n" for w in walls))
    return subprocess.run(
        [sys.executable, str(REPO / "bench" / "compare.py"),
         str(tmp_path / "parent"), str(tmp_path / "change")],
        capture_output=True, text=True, timeout=60)


PARENT_WALLS = [2.00, 2.02, 1.98]


def test_gate_trips_on_a_slower_change(tmp_path):
    out = _compare(tmp_path, PARENT_WALLS, [w * 1.2 for w in PARENT_WALLS])
    assert out.returncode == 1, out.stdout + out.stderr
    (wall_row,) = [line for line in out.stdout.splitlines()
                   if line.split()[:2] == ["rpc_m3v", "wall_s"]]
    assert wall_row.endswith("regressed")
    assert "exact counts, rpc_m3v: identical" in out.stdout


def test_gate_passes_identical_sides(tmp_path):
    out = _compare(tmp_path, PARENT_WALLS, PARENT_WALLS)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "regressed" not in out.stdout
