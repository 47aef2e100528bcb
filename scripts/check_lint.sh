#!/usr/bin/env sh
# Static-analysis gate: the repo's own analyzer plus (when available)
# ruff and mypy.
#
#   1. `repro lint` — REP001 determinism / REP002 sim-concurrency /
#      REP003 layering / REP004 cross-tile isolation checks.  Fails
#      on any finding.  Always runs; the analyzer is stdlib-only.
#   2. ruff + mypy — style/type gates configured in pyproject.toml.
#      The container image does not ship them, so each is skipped with
#      a notice when not importable; CI installs both and runs all
#      three.
#
# Environment knobs:
#   LINT_OUT    where to write the JSON report (default: skip)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== lint gate: repro lint =="
if [ -n "${LINT_OUT:-}" ]; then
    python -m repro lint --output "$LINT_OUT"
else
    python -m repro lint
fi

if python -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then
    echo "== lint gate: ruff =="
    ruff check src tests examples scripts
else
    echo "== lint gate: ruff not installed, skipping (CI runs it) =="
fi

if python -c "import mypy" 2>/dev/null; then
    echo "== lint gate: mypy =="
    python -m mypy src/repro
else
    echo "== lint gate: mypy not installed, skipping (CI runs it) =="
fi

echo "== lint gate passed =="
