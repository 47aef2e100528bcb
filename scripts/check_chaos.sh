#!/usr/bin/env sh
# Chaos gate: run the seeded fault-storm + overload-burst campaigns
# (repro chaos) over the figS serving topology, with the invariant
# checkers online and SLO floors enforced.  The set includes the
# m3v-migration-storm campaign (packed skewed layout, EDF mux,
# controller rebalancer), whose phases additionally require live
# activity migrations — including evacuating quarantined tiles
# mid-fault-storm — so the migration path is exercised under chaos,
# not just in unit tests.  The campaign set runs twice — plain and
# under the cross-tile causality check (REPRO_SHARDS=1), which fails
# any cross-tile push that bypasses the NoC — and the verdict output
# must be byte-identical: the check may not change the chaos schedule,
# or anything else.
#
# Usage: scripts/check_chaos.sh [requests-per-gateway-per-phase]
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src
requests="${1:-10}"

status=0

if python -m repro chaos --requests "$requests" \
        > /tmp/chaos_serial.txt 2>&1; then
    echo "ok   chaos campaigns (serial engine)"
else
    status=1
    echo "FAIL chaos campaigns (serial engine):" >&2
    cat /tmp/chaos_serial.txt >&2
fi

if REPRO_SHARDS=1 python -m repro chaos --requests "$requests" \
        > /tmp/chaos_checked.txt 2>&1; then
    echo "ok   chaos campaigns (REPRO_SHARDS=1, per-tile check)"
else
    status=1
    echo "FAIL chaos campaigns (REPRO_SHARDS=1, per-tile check):" >&2
    cat /tmp/chaos_checked.txt >&2
fi

if [ "$status" -eq 0 ]; then
    if cmp -s /tmp/chaos_serial.txt /tmp/chaos_checked.txt; then
        echo "ok   campaign verdicts identical unchecked vs checked"
    else
        status=1
        echo "FAIL campaign verdicts diverge under the causality check:" >&2
        diff /tmp/chaos_serial.txt /tmp/chaos_checked.txt >&2 || true
    fi
fi

exit $status
