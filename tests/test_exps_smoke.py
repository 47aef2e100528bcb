"""Smoke tests for the experiment runners with tiny parameters.

Every figure's code path runs inside the regular test suite, and the
paper's qualitative claims — :func:`repro.core.report.shape_checks`,
the one claim list — hold on the miniature workloads too.
"""

import json

import pytest

from repro.core.exps.fig6 import fig6_points
from repro.core.exps.fig7 import fig7_points, run_fig7_point
from repro.core.exps.fig8 import fig8_points, run_fig8_point
from repro.core.exps.fig9 import fig9_points, gem5_sysconfig
from repro.core.exps.fig10 import fig10_points
from repro.core.exps.voice import VoicePoint, run_voice_point
from repro.core.report import shape_checks
from repro.linuxsim import machine as linuxsim
from repro.mux.api import rendezvous
from repro.runner import ResultCache, Runner
from repro.services.m3fs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY, FsClient
from repro.services.net import NetClient


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


# the leading fd or socket id is left out: each system numbers its own
_FS_CALLS = {"open": 0, "read": 1, "write": 1, "close": 1}
_NET_CALLS = {"socket": 0, "bind": 1, "sendto": 1, "recvfrom": 1}


def _record_calls(monkeypatch, classes, calls):
    """Log ``(method, args)`` for every call of ``calls`` on ``classes``."""
    log = []
    for cls in classes:
        for name, skip in calls.items():
            real = getattr(cls, name)

            def recorded(self, *args, _real=real, _name=name, _skip=skip):
                log.append((_name, args[_skip:]))
                return _real(self, *args)

            monkeypatch.setattr(cls, name, recorded)
    return log


def _calls_per_point(log, run, points):
    """Each point's logged calls, in point order."""
    calls = []
    for pt in points:
        log.clear()
        run(pt)
        calls.append(list(log))
    return calls


@pytest.mark.parametrize("op", ["write", "read"])
def test_fig7_arms_issue_the_same_fs_calls(monkeypatch, op):
    # both arms open with m3fs's flag values
    assert ((O_RDONLY, O_WRONLY, O_CREAT, O_TRUNC)
            == (linuxsim.O_RDONLY, linuxsim.O_WRONLY, linuxsim.O_CREAT,
                linuxsim.O_TRUNC))
    log = _record_calls(monkeypatch, (FsClient, linuxsim.LinuxApi),
                        _FS_CALLS)
    points = [pt for pt in fig7_points(file_bytes=128 * 1024, runs=1,
                                       warmup=1) if pt.op == op]
    assert [pt.system for pt in points] == ["linux", "m3v", "m3v"]
    linux, shared, isolated = _calls_per_point(log, run_fig7_point, points)
    if op == "read":
        # Linux first writes the file that M3v's boot image holds
        assert linux[0] == ("open", ("/bench.dat", O_CREAT | O_WRONLY))
        linux = linux[linux.index(("close", ())) + 1:]
    assert linux and shared == linux and isolated == linux


def test_fig8_arms_issue_the_same_net_calls(monkeypatch):
    log = _record_calls(monkeypatch, (NetClient, linuxsim.LinuxApi),
                        _NET_CALLS)
    points = fig8_points(repetitions=5, warmup=1)
    assert [pt.kind for pt in points] == ["linux", "m3v_shared",
                                          "m3v_isolated"]
    linux, shared, isolated = _calls_per_point(log, run_fig8_point, points)
    assert len(linux) == 2 + 2 * 6
    assert shared == linux and isolated == linux


def _rescan_rendezvous(api, env, *keys):
    """The reference loop: rebuild the list of missing keys per poll."""
    missing = [k for k in keys if k not in env]
    while missing:
        yield 1_000_000
        missing = [k for k in missing if k not in env]


def _drive(loop, publish):
    """Run ``loop`` against keys published at ``publish[key]`` ps;
    returns (yields, exit time)."""
    env, now, yields = {}, 0, 0
    gen = loop(None, env, *publish)
    while True:
        env.update((k, 1) for k, t in publish.items() if t <= now)
        try:
            now += next(gen)
        except StopIteration:
            return yields, now
        yields += 1


@pytest.mark.parametrize("publish", [
    {},
    {"a": 0},
    {"a": 0, "b": 0, "c": 0},
    {"a": 3_000_000, "b": 0, "c": 7_500_000},
    {"a": 9_000_000, "b": 2_000_000, "c": 2_000_001},
    {"a": 1, "b": 5_000_000, "c": 5_000_000, "d": 40_000_000},
])
def test_rendezvous_polls_like_a_full_rescan(publish):
    assert (_drive(rendezvous, publish)
            == _drive(_rescan_rendezvous, publish))
