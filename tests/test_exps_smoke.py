"""Smoke tests for the experiment runners with tiny parameters.

These complement the benchmark harness: every figure's code path runs
inside the regular test suite, with the paper's qualitative shapes
asserted on miniature workloads.
"""

import pytest

from repro.core.exps.fig6 import Fig6Params, run_fig6
from repro.core.exps.fig7 import Fig7Params, run_fig7
from repro.core.exps.fig8 import Fig8Params, run_fig8
from repro.core.exps.fig9 import Fig9Params, _throughput, gem5_sysconfig
from repro.core.exps.fig10 import Fig10Params, run_fig10
from repro.core.exps.voice import VoiceParams, run_voice_once


def test_fig6_shape():
    rows = run_fig6(Fig6Params(iterations=60, warmup=10))
    assert rows["m3v_local"]["kcycles"] > 2.5 * rows["m3v_remote"]["kcycles"]
    assert 0.5 < rows["m3v_remote"]["kcycles"] / \
        rows["linux_syscall"]["kcycles"] < 1.5


def test_fig7_shape():
    rows = run_fig7(Fig7Params(file_bytes=256 * 1024, runs=1, warmup=1))
    assert rows["m3v_read_isolated"] > rows["linux_read"]
    assert rows["linux_write"] < rows["linux_read"]


def test_fig8_shape():
    rows = run_fig8(Fig8Params(repetitions=8, warmup=2))
    assert rows["m3v_isolated"] < rows["m3v_shared"]
    assert 0.4 < rows["m3v_shared"] / rows["linux"] < 2.0


def test_fig9_single_tile_advantage():
    p = Fig9Params(find_dirs=4, find_files=6, runs=1)
    m3v = _throughput("m3v", 1, p)
    m3x = _throughput("m3x", 1, p)
    assert m3v > 1.3 * m3x


def test_fig9_gem5_config_uses_3ghz_cores():
    config = gem5_sysconfig("m3v", 4)
    assert config.proc_core.freq_mhz == 3000.0
    assert config.controller_core.freq_mhz == 3000.0
    assert (config.n_proc_tiles, config.n_mem_tiles) == (4, 2)


def test_fig10_read_mix_shape():
    data = run_fig10(Fig10Params(records=30, operations=30, runs=1,
                                 warmup=0), mixes=("read",))
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


def test_voice_pipeline_compresses_and_ships():
    result = run_voice_once(shared=False, p=VoiceParams(triggers=2))
    assert result["bytes_in"] == 2 * 16384 * 2
    assert 1.0 < result["compression_ratio"] < 4.0
    assert result["ms"] > 0
