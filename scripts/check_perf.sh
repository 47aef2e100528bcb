#!/usr/bin/env sh
# Perf regression gate: an interleaved A/B run of the repo benchmark
# (bench/run.py) at the parent commit, HEAD^, against HEAD.
#
# HEAD^ is checked out as a detached git worktree in a temp dir, so each
# side runs its own bench/ and src/.  PAIRS pairs (default 3) of
# `bench/run.py --trace 0 --reps 3` alternate which side goes first, then
# bench/compare.py gives one verdict per workload and end-to-end metric
# with BENCHMARK.json's bounds (wall_s 10%, setup_s 15%, peak_rss_mb 5%).
# Fails when
#   * a metric regressed past its bound (compare.py exits 1), or
#   * any rep on either side differs from its tree's bench/expected.json
#     (bench/run.py exits 1 on a failed op).
#
# The runs are kept in /tmp/perf-ab/{parent,change}/runs.jsonl.  About
# 5-7 minutes on a 2-CPU host at the default 3 pairs.  Three pairs
# resolve a 10% change only on a quiet host; more pairs (say 6) gate a
# performance change locally.
#
# Usage: scripts/check_perf.sh [PAIRS]
set -eu
cd "$(dirname "$0")/.."

pairs="${1:-3}"
case "$pairs" in
    ''|*[!0-9]*|0*) echo "usage: $0 [PAIRS]  (PAIRS a positive integer)" >&2
                    exit 2 ;;
esac

out=/tmp/perf-ab
parent="$(mktemp -d)"
trap 'git worktree remove --force "$parent" 2>/dev/null || rm -rf "$parent"' EXIT
trap 'exit 1' HUP INT TERM
git worktree add --detach --quiet "$parent" HEAD^
rm -rf "$out"
# with bytecode writing on, each side compiles on its first import and
# reads .pyc files afterwards; with it off, a tree that already holds
# .pyc files would set up faster than the fresh worktree
unset PYTHONDONTWRITEBYTECODE

run() {  # run SIDE TREE
    echo "== perf gate: $1 at $(git -C "$2" rev-parse --short HEAD)"
    python "$2/bench/run.py" --trace 0 --reps 3 --out "$out/$1"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 0 ]; then
        run change .
        run parent "$parent"
    else
        run parent "$parent"
        run change .
    fi
    pair=$((pair + 1))
done

echo "== perf gate: verdict"
python bench/compare.py "$out/parent" "$out/change"
echo "== perf gate passed"
