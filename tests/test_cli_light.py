"""Cheap CLI entry points: ``repro --version`` and ``repro lint`` must
work without importing the experiment stack (platform, runner, numpy-
heavy report code).  The CI lint gate runs on every push, so its
startup cost is part of the interface."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# module prefixes whose import means the heavy stack was loaded
HEAVY = ("repro.core", "repro.sim", "repro.runner", "repro.dtu",
         "repro.kernel", "repro.obs", "numpy")

_PROBE = """
import sys
import repro.cli
try:
    repro.cli.main({argv!r})
except SystemExit as exc:
    if exc.code not in (0, None):
        raise
heavy = sorted(m for m in sys.modules if m.startswith({heavy!r}))
print("HEAVY:" + ",".join(heavy))
"""


def run_probe(argv):
    return subprocess.run(
        [sys.executable, "-c", _PROBE.format(argv=argv, heavy=HEAVY)],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def test_version_is_light():
    result = run_probe(["--version"])
    assert result.returncode == 0, result.stderr
    assert "HEAVY:\n" in result.stdout.replace("\r", "")


def test_lint_help_is_light():
    result = run_probe(["lint", "--help"])
    assert result.returncode == 0, result.stderr
    assert "HEAVY:\n" in result.stdout.replace("\r", "")
    assert "--list-rules" in result.stdout


def test_lint_run_is_light():
    """A real lint run over one file stays off the experiment stack."""
    result = run_probe(["lint", "src/repro/analysis/core.py"])
    assert result.returncode == 0, result.stderr
    assert "HEAVY:\n" in result.stdout.replace("\r", "")


def test_version_matches_package():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--version"],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0
    from repro import __version__
    assert result.stdout.strip() == f"repro {__version__}"


def test_lazy_package_exports_still_resolve():
    """PEP 562 re-exports keep the legacy surface working."""
    import repro
    assert callable(repro.M3vPlatform)
    assert callable(repro.M3xPlatform)
    assert "M3xPlatform" in dir(repro)


def test_experiment_stack_does_not_import_numpy():
    """Only the voice codec uses numpy: importing the experiment stack
    and building a system (every benchmarked figure's set-up) must not
    pay for it."""
    probe = ("import sys\n"
             "import repro.api, repro.core.exps\n"
             "repro.api.build_system(repro.api.SystemConfig(kind='m3v'))\n"
             "print('numpy' in sys.modules)\n")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


#: every module of ``repro.core.exps`` that holds a figure or the plans
FIGURE_MODULES = ("ablations", "fig6", "fig7", "fig8", "fig9", "fig10",
                  "figr", "figs", "plans", "voice")


def test_one_figure_module_imports_no_other():
    """The repo benchmark loads a workload by importing one figure
    module; the package init must not drag in the other figures."""
    for module in ("figs", "fig6", "fig9"):
        probe = ("import sys\n"
                 f"import repro.core.exps.{module}\n"
                 f"names = {FIGURE_MODULES!r}\n"
                 "print(','.join(n for n in names\n"
                 "               if 'repro.core.exps.' + n in sys.modules))\n")
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == module
