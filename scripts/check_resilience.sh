#!/usr/bin/env sh
# Resilience smoke check: run the figure-R sweep end to end (fault
# injection + recovery armed, invariant checkers online) under two
# different hash seeds — any dependence of the seeded fault schedule on
# dict/set iteration order shows up as a failure or a result mismatch.
# The resilience test suites run in the tier-1 suite, not here.
#
# Usage: scripts/check_resilience.sh
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

status=0

for seed in 1 2; do
    out="/tmp/figr_check_$seed.json"
    if PYTHONHASHSEED="$seed" python scripts/run_experiments.py "$out" \
            --only figR --quick --no-cache >/dev/null; then
        echo "ok   figR sweep (PYTHONHASHSEED=$seed)"
    else
        echo "FAIL figR sweep (PYTHONHASHSEED=$seed): point failures" >&2
        status=1
    fi
done

if python - <<'PY'
import json
a = json.load(open("/tmp/figr_check_1.json"))
b = json.load(open("/tmp/figr_check_2.json"))
assert a == b, "figR results differ across hash seeds"
figr = a["figR"]
top = max(figr["m3v"], key=float)
assert float(top) > 0, "sweep has no non-zero fault rate"
m3v, m3x = figr["m3v"][top]["goodput_rps"], figr["m3x"][top]["goodput_rps"]
assert m3v > m3x, f"M3v ({m3v:.0f} rps) should beat M3x ({m3x:.0f} rps)"
assert figr["m3v"][top]["failures"] == 0, "M3v abandoned round trips"
print(f"ok   figR@{top}: m3v {m3v:.0f} rps > m3x {m3x:.0f} rps, identical "
      f"across hash seeds")
PY
then :; else
    echo "FAIL figR shape/determinism check" >&2
    status=1
fi

exit $status
