"""The analyzer itself: rule precision on fixtures, suppression, the
JSON schema, and the self-check that the real tree is clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.core import (
    DEFAULT_TARGETS,
    all_rules,
    collect_files,
    module_name_for,
    run_lint,
)
from repro.analysis.report import JSON_SCHEMA, findings_to_json, format_human

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"

# every bad fixture and the single (rule, check) it must trigger
BAD_FIXTURES = {
    "src/repro/sim/bad_unordered.py": ("REP001", "unordered-iter"),
    "src/repro/sim/bad_entropy.py": ("REP001", "entropy"),
    "src/repro/sim/bad_id_ordering.py": ("REP001", "id-ordering"),
    "src/repro/sim/bad_float_simtime.py": ("REP001", "float-simtime"),
    "src/repro/sim/bad_timer_order.py": ("REP001", "unordered-iter"),
    "src/repro/sim/bad_yield.py": ("REP002", "bad-yield"),
    "src/repro/sim/bad_double_trigger.py": ("REP002", "double-trigger"),
    "src/repro/sim/bad_nongen.py": ("REP002", "nongen-process"),
    "src/repro/sim/bad_blocking.py": ("REP002", "blocking-call"),
    "src/repro/sim/bad_upward.py": ("REP003", "upward-import"),
    "examples/bad_facade.py": ("REP003", "facade-bypass"),
    "src/repro/sim/bad_env_read.py": ("REP003", "env-config"),
    "src/repro/sim/bad_cross_shard.py": ("REP004", "foreign-tile-store"),
    "src/repro/sim/bad_active_tile.py": ("REP004", "active-tile"),
    "src/repro/sim/bad_event_tile.py": ("REP004", "event-tile-store"),
}


def lint_fixture(rel):
    return run_lint([rel], root=FIXTURES)


# -- rule precision -----------------------------------------------------------

@pytest.mark.parametrize("rel,expected", sorted(BAD_FIXTURES.items()),
                         ids=[Path(k).stem for k in sorted(BAD_FIXTURES)])
def test_bad_fixture_triggers_exactly_its_rule(rel, expected):
    findings = lint_fixture(rel)
    assert findings, f"{rel} produced no findings"
    assert {(f.rule, f.check) for f in findings} == {expected}


def test_good_fixture_is_clean():
    assert lint_fixture("src/repro/sim/good_clean.py") == []


def test_findings_carry_precise_locations():
    (f,) = lint_fixture("src/repro/sim/bad_yield.py")
    assert f.path.endswith("bad_yield.py")
    assert f.line == 5 and f.col > 0
    assert f.symbol == "worker"
    assert "Event" in f.message


def test_fixture_tree_walk_covers_every_bad_file():
    findings = run_lint(["src", "examples"], root=FIXTURES)
    flagged = {f.path for f in findings}
    assert flagged == set(BAD_FIXTURES)


# -- policy -------------------------------------------------------------------

def test_module_name_mapping():
    assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for("src/repro/api/__init__.py") == "repro.api"
    assert module_name_for("tests/test_noc.py") == "tests.test_noc"
    assert module_name_for("examples/quickstart.py") == "examples.quickstart"


def test_default_walk_skips_fixture_directory():
    files = collect_files(DEFAULT_TARGETS, root=REPO)
    assert files, "collect_files found nothing from the repo root"
    assert not any("lint_fixtures" in p.parts for p in files)


def test_select_and_ignore():
    rel = "src/repro/sim/bad_unordered.py"
    assert lint_fixture(rel)
    assert run_lint([rel], root=FIXTURES, select=["REP002"]) == []
    assert run_lint([rel], root=FIXTURES, ignore=["REP001"]) == []
    with pytest.raises(ValueError):
        run_lint([rel], root=FIXTURES, select=["REP999"])


def test_rule_registry_is_complete():
    rules = all_rules()
    assert set(rules) == {"REP001", "REP002", "REP003", "REP004"}
    for rule in rules.values():
        assert rule.description


def test_declared_env_vars_are_pinned():
    """REP003 routes every REPRO_* read through repro.sim.envcfg, so
    this set is every environment knob; adding one changes this test."""
    from repro.sim import envcfg

    assert set(envcfg.ENV_VARS) == {"REPRO_SHARDS", "REPRO_NOC_BATCH"}
    with pytest.raises(KeyError):
        envcfg.raw("REPRO_SCHED")


def _build_sim_and_fabric():
    from repro.noc import NocFabric, StarMeshTopology
    from repro.sim import Simulator

    return NocFabric(Simulator(), StarMeshTopology([0, 1]))


@pytest.mark.parametrize("name", ["REPRO_SHARDS", "REPRO_NOC_BATCH"])
@pytest.mark.parametrize("value", ["off", "false", "4"])
def test_env_switches_reject_anything_but_0_and_1(name, value, monkeypatch):
    """An on/off switch is "", "0" or "1"; a misspelt value raises at
    its consumer instead of silently picking one state."""
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_NOC_BATCH", raising=False)
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"{name}=.*on/off switch"):
        _build_sim_and_fabric()


@pytest.mark.parametrize("value,checked,batched", [
    ("", False, True), ("0", False, False), ("1", True, True)])
def test_env_switches_accept_empty_0_and_1(value, checked, batched,
                                           monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", value)
    monkeypatch.setenv("REPRO_NOC_BATCH", value)
    fabric = _build_sim_and_fabric()
    assert fabric.sim.check_causality is checked
    assert fabric.batch_hops is batched


# -- suppressions -------------------------------------------------------------

def test_noqa_suppresses_scoped_rule():
    assert lint_fixture("src/repro/sim/suppressed_ok.py") == []


def test_noqa_scoping(tmp_path):
    src = ("def drain(events):\n"
           "    pending = {3, 1, 2}\n"
           "    out = []\n"
           "    for ev in pending:  # repro: noqa[REP002]\n"
           "        out.append(ev)\n"
           "    return out\n")
    tree = tmp_path / "src" / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "scoped.py").write_text(src)
    # noqa names the wrong rule: the REP001 finding survives
    findings = run_lint(["src"], root=tmp_path)
    assert [(f.rule, f.check) for f in findings] == \
        [("REP001", "unordered-iter")]
    # bare noqa silences everything on the line
    (tree / "scoped.py").write_text(src.replace("noqa[REP002]", "noqa"))
    assert run_lint(["src"], root=tmp_path) == []


# -- report -------------------------------------------------------------------

def test_json_report_schema():
    findings = run_lint(["src", "examples"], root=FIXTURES)
    doc = json.loads(findings_to_json(findings))
    assert doc["schema"] == JSON_SCHEMA == "repro-lint/2"
    assert set(doc) == {"schema", "findings", "summary"}
    assert doc["summary"]["total"] == len(findings)
    assert doc["summary"]["by_rule"]["REP001"] == 5
    for entry in doc["findings"]:
        assert set(entry) == {"rule", "check", "path", "line", "col",
                              "symbol", "message"}


def test_human_report_tags_and_summary():
    findings = lint_fixture("src/repro/sim/bad_yield.py")
    out = format_human(findings)
    assert "REP002[bad-yield] " in out
    assert "bad_yield.py:5:" in out
    assert "lint: 1 finding(s) (REP002: 1)" in out
    assert "no findings" in format_human([])


# -- the real tree ------------------------------------------------------------

def test_repo_lint_is_clean():
    """The committed tree has no findings."""
    findings = run_lint(DEFAULT_TARGETS, root=REPO)
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule}[{f.check}] {f.message}" for f in findings)


def test_gate_fails_on_injected_violation(tmp_path):
    """End-to-end CI-gate behavior: copying a clean mini-tree passes,
    injecting a REP001 violation makes `repro lint` exit 1."""
    tree = tmp_path / "src" / "repro" / "sim"
    tree.mkdir(parents=True)
    clean = FIXTURES / "src" / "repro" / "sim" / "good_clean.py"
    (tree / "engine_ext.py").write_text(clean.read_text())

    def gate():
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--root", str(tmp_path),
             "--format", "json", "src"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})

    assert gate().returncode == 0

    (tree / "engine_ext.py").write_text(
        clean.read_text()
        + "\n\ndef racy(events):\n"
          "    for ev in set(events):\n"
          "        ev.succeed()\n")
    result = gate()
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert [f["rule"] for f in doc["findings"]] == ["REP001"]
    assert doc["findings"][0]["check"] == "unordered-iter"
