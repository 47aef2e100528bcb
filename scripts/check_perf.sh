#!/usr/bin/env sh
# Perf regression gate: run the quick benchmarks and compare against the
# committed BENCH_engine.json / BENCH_figs.json trajectory.
#
# Fails when
#   * a benchmark's simulated-event count differs from the committed one
#     (the simulation is deterministic: changed work is never noise), or
#   * events/sec drops more than PERF_THRESHOLD (default 25%) below the
#     committed value (wall-clock tolerance for shared CI machines).
#
# Environment knobs:
#   PERF_THRESHOLD   tolerated fractional ev/s drop        (default 0.25)
#   PERF_RUNS        timed runs per benchmark, best kept   (default 3)
#   PERF_OUT_DIR     where fresh BENCH files are written   (default tmp)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH=src

PERF_THRESHOLD="${PERF_THRESHOLD:-0.25}"
PERF_RUNS="${PERF_RUNS:-3}"
PERF_OUT_DIR="${PERF_OUT_DIR:-}"
if [ -z "$PERF_OUT_DIR" ]; then
    PERF_OUT_DIR="$(mktemp -d)"
    trap 'rm -rf "$PERF_OUT_DIR"' EXIT
fi

echo "== perf gate: committed trajectory covers the causality-checked engine =="
# compare() gates every bench present in the committed file, so losing
# an entry from BENCH_engine.json silently narrows the gate; pin the
# 64-tile fig9 pair as mandatory: plain, and with the cross-tile
# causality check run per tile (same event count, the check's cost;
# the checked entry keeps its historical name fig9_64_sharded).
python - <<'PY'
import json
doc = json.load(open("BENCH_engine.json"))
missing = [n for n in ("fig9_64_serial", "fig9_64_sharded")
           if n not in doc.get("benches", {})]
assert not missing, f"BENCH_engine.json lost required entries: {missing}"
print("fig9_64_serial + fig9_64_sharded present")
PY

echo "== perf gate: quick benchmarks vs committed trajectory =="
python -m repro bench --out-dir "$PERF_OUT_DIR" --runs "$PERF_RUNS" \
    --against . --threshold "$PERF_THRESHOLD"
echo "== perf gate passed =="
