"""Smoke-scale tests of the benchmark itself: python -m pytest bench/tests"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402
from counts import count_rep  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, SENSITIVITY, HostSpeed  # noqa: E402
from worker import Ops  # noqa: E402
from workloads import WORKLOADS, load_expected, run_rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, env=None, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One smoke run of every workload, end to end and per layer."""
    out = tmp_path_factory.mktemp("out")
    proc = bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in
               (out / "runs.jsonl").read_text().splitlines()]
    return out, last_json(proc.stdout), records


def test_workloads_match_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_smoke_run_of_every_workload_passes(smoke_runs):
    out, result, records = smoke_runs
    assert result["correct"] is True and result["failed"] == 0
    assert [r["workload"] for r in records] == list(WORKLOADS)
    for name in WORKLOADS:
        layers = json.loads((out / f"{name}.layers.json").read_text())
        total = sum(layers["self_s"].values()) + layers["unattributed_s"]
        assert total == pytest.approx(layers["wall_s"])


def test_output_names_match_spec(smoke_runs):
    _, _, records = smoke_runs
    for rec in records:
        assert sorted(rec["e2e"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        assert sorted(rec["per_layer"]) == sorted(m["name"]
                                                  for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_driver_mode_prints_exactly_the_declared_metrics(tmp_path, trace,
                                                         section):
    proc = bench("--workload", "rpc_m3v", "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in SPEC[section]}


def test_e2e_metrics_are_never_zero(smoke_runs):
    _, _, records = smoke_runs
    for rec in records:
        assert all(m["value"] > 0 for m in rec["e2e"].values()), rec["e2e"]


def test_exact_counts_repeat_across_hash_seeds():
    for name in WORKLOADS:
        results = []
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = bench("count", name, "--smoke", env=env,
                         script=BENCH / "worker.py")
            assert proc.returncode == 0, proc.stderr
            results.append(last_json(proc.stdout))
        assert results[0]["counts"] == results[1]["counts"], name
        assert results[0]["outputs"] == results[1]["outputs"], name
        assert results[0]["counts"]["trace"]["evq_pop"] > 0


def test_traced_runs_leave_outputs_identical():
    for name, workload in WORKLOADS.items():
        plain = run_rep(workload, 1, True).outputs
        with spans.instrument(spans.Recorder()) as rec:
            wrapped = run_rep(workload, 1, True).outputs
        counted, _ = count_rep(workload, True)
        assert wrapped == plain, name
        assert counted.outputs == plain, name
        assert rec.calls[("mux.api", "send")] > 0 and not rec.stack


def _installed():
    from repro.api import system as api_system
    from repro.sim import engine

    attrs = {(cls, name): vars(cls)[name]
             for _, cls, name in spans.wrapped_methods()}
    return (attrs, api_system.System.__init__, engine._default_profiler,
            engine._default_tracer)


def test_wrappers_uninstall_cleanly():
    before = _installed()
    assert len(before[0]) > 50
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Recorder()):
            inside = _installed()
            raise RuntimeError("rep failed")
    changed = [k for k, fn in inside[0].items() if before[0][k] is fn]
    assert not changed and inside[2] is not None
    assert _installed() == before
    run_rep(WORKLOADS["rpc_m3v"], 1, True)
    count_rep(WORKLOADS["rpc_m3v"], True)
    assert _installed() == before


def test_injected_mismatch_is_a_failed_op():
    workload = WORKLOADS["rpc_m3v"]
    rep = run_rep(workload, 1, True)
    good = {workload.name: {"1": rep.outputs}}
    ops = Ops(workload, smoke=False, expected=good)
    ops.run(1, lambda: rep)
    assert (ops.attempted, ops.failed) == (1, 0)
    bad = json.loads(json.dumps(good))
    bad[workload.name]["1"]["m3v_local"]["mean_ps"] += 1.0
    ops = Ops(workload, smoke=False, expected=bad)
    ops.run(1, lambda: rep)
    ops.run(1, lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (2, 2)
    assert "m3v_local" in ops.problems[0]


def test_expected_values_cover_seeds_1_and_2():
    expected = load_expected()
    assert sorted(expected) == sorted(WORKLOADS)
    for name, seeds in expected.items():
        assert sorted(seeds) == ["1", "2"], name
    assert expected["rpc_m3v"]["1"]["m3v_local"]["mean_ps"] == 65_146_000.0


def test_refuses_engine_overrides():
    env = dict(os.environ, REPRO_SHARDS="4")
    proc = bench("--workload", "rpc_m3v", "--smoke", env=env)
    assert proc.returncode == 2 and not proc.stdout.strip().endswith("}")


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "rpc_m3v", "--smoke", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scales_the_block_without_its_probes():
    with HostSpeed() as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 3
    assert 0 < clock.net < clock.gross
    assert clock.scaled() == pytest.approx(clock.net * statistics.mean(
        (REFERENCE_PROBE_S / p) ** SENSITIVITY for p in clock.samples))
    with HostSpeed() as short:  # shorter than one probe interval
        pass
    assert len(short.samples) == 1 and short.scaled() >= 0


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [x * 0.8 for x in base], True,
                           0.1)["verdict"] == "improved"
    assert compare.verdict(base, [x * 1.2 for x in base], True,
                           0.1)["verdict"] == "regressed"
    assert compare.verdict(base, [x * 1.01 for x in base], True,
                           0.1)["verdict"] == "no worse"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(base, noisy, True, 0.1)["verdict"] == "unresolved"
    assert compare.verdict(base, [x * 1.2 for x in base], False,
                           0.1)["verdict"] == "improved"
