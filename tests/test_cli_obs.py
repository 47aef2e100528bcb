"""The observability CLI: stats (with --metrics-out), profile and the
trace exports."""

import json

import pytest

from repro.cli import main


def test_trace_out_creates_missing_parent_dirs(tmp_path, capsys):
    out = tmp_path / "deep" / "nested" / "fig6.jsonl"
    spans = tmp_path / "other" / "spans.json"
    chrome = tmp_path / "third" / "chrome.json"
    rc = main(["trace", "fig6", "--out", str(out),
               "--spans", str(spans), "--chrome", str(chrome)])
    assert rc == 0
    assert out.exists() and out.stat().st_size > 0
    parsed = json.loads(spans.read_text())
    assert parsed and parsed[0]["state"]
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]


def test_stats_prints_series_and_aggregate_counters(tmp_path, capsys):
    rc = main(["stats", "fig6", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "aggregate counters" in out
    assert "\n  dtu/sends " in out       # platform-wide counter names
    assert "tile0/dtu/sends" not in out
    assert "sim/evq_depth" in out


def test_stats_series_filter(tmp_path, capsys):
    rc = main(["stats", "fig6", "--quick", "--series", "ready_q"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ready_q" in out
    assert "core_req_q" not in out


def test_profile_emits_subsystem_table(capsys):
    rc = main(["profile", "fig6", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "subsystem" in out
    assert "events/s" in out
    assert "tilemux" in out


def test_metrics_out_writes_per_point_artifacts(tmp_path, capsys):
    dest = tmp_path / "made" / "by" / "cli"
    rc = main(["stats", "fig6", "--quick", "--metrics-out", str(dest)])
    assert rc == 0
    files = sorted(dest.glob("fig6-*.metrics.json"))
    assert len(files) == 4              # one snapshot per fig6 point
    snaps = [json.loads(f.read_text()) for f in files]
    assert all("counters" in s for s in snaps)
    # the m3v points carry DTU counters, the linux points syscalls
    assert any(s["counters"].get("dtu/sends") for s in snaps)
    assert any(s["counters"].get("linux/syscalls") for s in snaps)


def test_help_lists_observability_options(capsys):
    """Metering is ``stats``' job: its help lists ``--metrics-out`` and
    ``--jobs`` but no cache option; a figure command's lists the runner
    options and nothing to meter with."""
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--metrics-out" in out and "--jobs" in out
    assert "--no-cache" not in out and "--cache-dir" not in out
    with pytest.raises(SystemExit) as exc:
        main(["fig9", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--jobs" in out and "--no-cache" in out
    assert "--metrics" not in out
