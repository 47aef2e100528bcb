"""Smoke tests for the experiment runners with tiny parameters.

Every figure's code path runs inside the regular test suite, and the
paper's qualitative claims — :func:`repro.core.report.shape_checks`,
the one claim list — hold on the miniature workloads too.
"""

import json

from repro.core.exps.fig6 import fig6_points
from repro.core.exps.fig7 import fig7_points
from repro.core.exps.fig8 import fig8_points
from repro.core.exps.fig9 import fig9_points, gem5_sysconfig
from repro.core.exps.fig10 import fig10_points
from repro.core.exps.voice import VoicePoint, run_voice_point
from repro.core.report import shape_checks
from repro.runner import ResultCache, Runner


def test_fig6_shape():
    rows = Runner().run_sweep("fig6", fig6_points(iterations=60, warmup=10))
    assert shape_checks({"fig6": rows}) == []


def test_fig7_shape():
    rows = Runner().run_sweep("fig7", fig7_points(file_bytes=256 * 1024,
                                                  runs=1, warmup=1))
    assert shape_checks({"fig7": rows}) == []


def test_fig8_shape():
    rows = Runner().run_sweep("fig8", fig8_points(repetitions=8, warmup=2))
    assert shape_checks({"fig8": rows}) == []


def test_fig9_single_tile_advantage():
    series = Runner().run_sweep("fig9", fig9_points(
        tile_counts=[1], find_dirs=4, find_files=6, runs=1))
    assert shape_checks({"fig9": {"find": series}}) == []


def test_fig9_gem5_config_uses_3ghz_cores():
    config = gem5_sysconfig("m3v", 4)
    assert config.proc_core.freq_mhz == 3000.0
    assert config.controller_core.freq_mhz == 3000.0
    assert (config.n_proc_tiles, config.n_mem_tiles) == (4, 2)


def test_fig10_read_mix_shape():
    data = Runner().run_sweep("fig10", fig10_points(
        mixes=["read"], records=30, operations=30, runs=1, warmup=0))
    read = data["read"]
    for system in ("m3v_isolated", "m3v_shared", "linux"):
        r = read[system]
        assert r["total_s"] > 0
        assert r["user_s"] >= 0 and r["sys_s"] >= 0
        assert r["user_s"] + r["sys_s"] <= r["total_s"] * 1.35
    # Linux spends relatively more system time (every op is a trap)
    linux = read["linux"]
    m3v = read["m3v_isolated"]
    assert linux["sys_s"] / linux["total_s"] > m3v["sys_s"] / m3v["total_s"]


def test_ablations_sweep_shape_and_cache_round_trip(tmp_path):
    cold = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
    out = cold.run_sweep("ablations")
    assert (cold.simulated, cold.failed) == (11, 0)
    # the committed file's form: JSON object keys are strings
    assert shape_checks(json.loads(json.dumps({"ablations": out}))) == []
    warm = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
    assert warm.run_sweep("ablations") == out
    assert warm.served == 11


def test_voice_pipeline_compresses_and_ships():
    result = run_voice_point(VoicePoint(shared=False, rep=0, triggers=2))
    assert result["bytes_in"] == 2 * 16384 * 2
    assert 1.0 < result["compression_ratio"] < 4.0
    assert result["ms"] > 0
