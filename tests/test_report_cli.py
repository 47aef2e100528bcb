"""Tests for the report renderer and the CLI."""

import json

import pytest

from repro.cli import main
from repro.core.report import bar_chart, render_report, series_chart, shape_checks


def test_bar_chart_scales_to_peak():
    chart = bar_chart("t", {"a": 10.0, "b": 5.0})
    lines = chart.splitlines()
    assert lines[0] == "t"
    assert lines[1].count("#") == 2 * lines[2].count("#")


def test_bar_chart_empty():
    assert "(no data)" in bar_chart("t", {})


def test_series_chart_renders_all_points():
    chart = series_chart("t", {"m3v": {1: 10, 2: 20}, "m3x": {1: 5, 2: 6}})
    assert "m3v" in chart and "m3x" in chart
    assert "20" in chart


GOOD = {
    "fig6": {"m3v_remote": {"kcycles": 1.7, "us": 21},
             "linux_syscall": {"kcycles": 1.8, "us": 22},
             "m3v_local": {"kcycles": 5.2, "us": 65},
             "linux_yield_2x": {"kcycles": 5.8, "us": 72}},
    "fig7": {"m3v_read_shared": 250.0, "m3v_read_isolated": 290.0,
             "m3v_write_shared": 200.0, "m3v_write_isolated": 230.0,
             "linux_read": 70.0, "linux_write": 50.0},
    "fig9": {"find": {"m3v": {"1": 94, "12": 1128},
                      "m3x": {"1": 47, "4": 62, "12": 62}}},
    "fig10": {"scan": {"linux": {"total_s": 2.7},
                       "m3v_shared": {"total_s": 2.5},
                       "m3v_isolated": {"total_s": 2.4}}},
    "voice": {"isolated_ms": 119.0, "shared_ms": 127.0,
              "overhead_pct": 6.7},
    "ablations": {
        "mediated": {"direct": 21.8, "mediated": 178.1},
        "extent": {"4": 92.6, "16": 204.1, "64": 292.0},
        "timeslice": {"100": {"switches": 242, "makespan_ms": 184.1},
                      "10000": {"switches": 18, "makespan_ms": 180.4}},
        "tlb": {"8": {"us_per_send": 10.9, "misses": 960},
                "128": {"us_per_send": 6.2, "misses": 0}},
    },
}


def test_shape_checks_pass_on_good_results():
    assert shape_checks(GOOD) == []


def test_shape_checks_catch_broken_scaling():
    bad = json.loads(json.dumps(GOOD))
    bad["fig9"]["find"]["m3v"]["12"] = 100  # flat M3v: not the paper
    failures = shape_checks(bad)
    assert any("near-linear" in f for f in failures)


def test_shape_checks_catch_linux_winning_scans():
    bad = json.loads(json.dumps(GOOD))
    bad["fig10"]["scan"]["linux"]["total_s"] = 1.0
    assert any("scans" in f for f in failures_of(bad))


def failures_of(results):
    return shape_checks(results)


def test_render_report_includes_all_sections():
    text = render_report(GOOD)
    for needle in ("Figure 6", "Figure 7", "Figure 9", "Figure 10",
                   "Voice assistant", "Ablations"):
        assert needle in text
    assert "4 / 16 / 64 blocks -> 92.6 / 204.1 / 292.0 MiB/s read" in text


def test_report_tolerates_results_without_ablations():
    older = {k: v for k, v in GOOD.items() if k != "ablations"}
    assert "Ablations" not in render_report(older)
    assert shape_checks(older) == []


def test_cli_area_and_sloc(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "vDTU" in out and "10.6%" in out
    assert main(["sloc"]) == 0
    assert "controller" in capsys.readouterr().out


def test_cli_report_roundtrip(tmp_path, capsys):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(GOOD))
    assert main(["report", str(path)]) == 0
    assert "all shape checks passed" in capsys.readouterr().out


def test_cli_report_flags_failures(tmp_path, capsys):
    bad = json.loads(json.dumps(GOOD))
    bad["fig7"]["m3v_read_shared"] = 10.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["report", str(path)]) == 1
    assert "SHAPE CHECKS FAILED" in capsys.readouterr().out


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_commands_accept_only_the_options_they_read(tmp_path):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(GOOD))
    # report reads a file; profile always runs in-process and uncached
    for argv in (["report", "--jobs", "2", str(path)],
                 ["profile", "fig6", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert main(["fig6", "--quick", "--jobs", "1", "--no-cache"]) == 0


def test_cli_rejects_abbreviated_options():
    """``--metrics`` is not ``--metrics-out`` and ``--no-cach`` is not
    ``--no-cache``: an abbreviation is a usage error."""
    for argv in (["stats", "fig6", "--metrics"],
                 ["fig6", "--quick", "--no-cach"],
                 ["fig9", "--tr", "sqlite"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# -- the points each command runs -----------------------------------------

class _Ran(Exception):
    """Raised by the stub runner once it has seen the points."""


#: the command's extra arguments, and the plan entry they select:
#: (sweep, fig9 trace or None, fig10 mix or None)
SELECTIONS = (
    [([name], (name, None, None))
     for name in ("fig6", "fig7", "fig8", "figR", "figS", "voice")]
    + [(["fig9"], ("fig9", "find", None)),
       (["fig9", "--trace", "sqlite"], ("fig9", "sqlite", None)),
       (["fig10"], ("fig10", None, "scan")),
       (["fig10", "--mix", "read"], ("fig10", None, "read")),
       (["stats", "fig9", "--trace", "sqlite"], ("fig9", "sqlite", None)),
       (["stats", "fig10", "--mix", "insert"], ("fig10", None, "insert")),
       (["stats", "figS"], ("figS", None, None)),
       (["profile", "fig9"], ("fig9", "find", None)),
       (["profile", "fig6"], ("fig6", None, None))])
#: size flag -> plan
SIZES = {(): "quick", ("--quick",): "smoke", ("--paper",): "paper"}


@pytest.mark.parametrize("flags", sorted(SIZES),
                         ids=lambda f: f[0] if f else "default")
@pytest.mark.parametrize("argv,selected", SELECTIONS,
                         ids=[" ".join(argv) for argv, _ in SELECTIONS])
def test_cli_runs_the_plan_tables_points(monkeypatch, argv, selected, flags):
    from repro.core.exps.plans import PLANS
    from repro.runner import Runner

    sweep, trace, mix = selected
    (points,) = [points for name, sub, points in PLANS[SIZES[flags]]
                 if name == sweep and sub == trace]
    if mix is not None:
        points = [pt for pt in points if pt.mix == mix]
    seen = []

    def run_sweep(self, name, points=None):
        seen.append((name, list(points)))
        raise _Ran

    monkeypatch.setattr(Runner, "run_sweep", run_sweep)
    with pytest.raises(_Ran):
        main([*argv, *flags])
    assert seen == [(sweep, points)]
