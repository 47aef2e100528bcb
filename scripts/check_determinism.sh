#!/usr/bin/env sh
# Cross-process determinism check: record each golden workload's trace in
# two fresh interpreters with different hash seeds and compare the
# canonical SHA-256 digests.  Any dependence on dict/set iteration order,
# id()-based ordering, or leftover global state shows up as a mismatch.
#
# Usage: scripts/check_determinism.sh [workload ...]
#        (default: fig6 fig8 figS_m3v figS_m3x)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

workloads="${*:-fig6 fig8 figS_m3v figS_m3x}"
status=0

sha_of() {
    # "fig6: 1113 events, sha256 1e1f482ad552c952…" -> the hash prefix
    PYTHONHASHSEED="$2" python -m repro trace "$1" | sed -n 's/.*sha256 \([0-9a-f]*\).*/\1/p'
}

for w in $workloads; do
    a="$(sha_of "$w" 1)"
    b="$(sha_of "$w" 2)"
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
        echo "FAIL $w: trace differs across interpreters ($a vs $b)" >&2
        status=1
    else
        echo "ok   $w: $a"
    fi
    if ! PYTHONHASHSEED=0 python -m repro trace "$w" --diff >/dev/null; then
        echo "FAIL $w: trace diverges from committed golden (tests/golden/$w.json)" >&2
        status=1
    else
        echo "ok   $w: matches committed golden"
    fi
done

exit $status
