#!/usr/bin/env sh
# Observability sanity check: `repro stats` (which always simulates)
# must print identical aggregate counters (every counter the platforms
# keep) in two fresh interpreters with different hash seeds — metering
# must be exactly as deterministic as the simulation it observes — and
# `repro profile` must print its subsystem table.  The metrics/spans/
# facade test suites run in the tier-1 suite, not here.
#
# Usage: scripts/check_observability.sh
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

status=0

stats_of() {
    # aggregate counters only: everything after the marker line, which is
    # the deterministic slice (wall-clock noise lives above it)
    PYTHONHASHSEED="$1" python -m repro stats fig6 --quick \
        | sed -n '/aggregate counters/,$p'
}

echo "== repro stats determinism across hash seeds"
a="$(stats_of 1)"
b="$(stats_of 2)"
if [ -z "$a" ] || [ "$a" != "$b" ]; then
    echo "FAIL: aggregate counters differ across interpreters" >&2
    status=1
else
    echo "ok   stats fig6 --quick: identical under PYTHONHASHSEED=1 and 2"
fi

echo "== repro profile smoke"
if ! python -m repro profile fig6 --quick | grep -q "events/s"; then
    echo "FAIL: repro profile fig6 --quick printed no self-profile" >&2
    status=1
else
    echo "ok   profile fig6 --quick emits the subsystem table"
fi

exit $status
