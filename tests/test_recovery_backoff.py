"""Backoff jitter determinism (ISSUE figS satellite).

The recovery layer's retry schedule must be a pure function of the
policy seed and the actor identity: :meth:`RecoveryPolicy.jitter_rng`
seeds ``random.Random`` with a *string* (hashed with SipHash into the
Mersenne state independently of ``PYTHONHASHSEED``), so the backoff
waits — and therefore the whole retransmit timeline — are

* byte-identical across interpreter hash seeds, and
* byte-identical with the cross-tile causality check on
  (``REPRO_SHARDS=1``) or off, where retries race real traffic.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.faults import RecoveryPolicy

REPO = Path(__file__).resolve().parent.parent

# prints the first 6 backoff waits of 3 distinct jitter streams
JITTER_SNIPPET = """\
from repro.faults import RecoveryPolicy
pol = RecoveryPolicy(seed=7)
for tile, name in ((0, "sep3"), (5, "sep3"), (5, "rep1")):
    rng = pol.jitter_rng(tile, name)
    print(tile, name, [pol.backoff_ps(a, rng) for a in range(1, 7)])
"""

# one lossy figR point end to end; prints the reduced stats dict
FIGR_SNIPPET = """\
from repro.core.exps.figr import FigRPoint, run_figr_point
res = run_figr_point(FigRPoint(system="m3v", rate=0.1, pairs=2,
                               messages=8, fault_seed=3))
print(sorted(res.items()))
"""


def _run(snippet: str, **env_overrides) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **env_overrides)
    out = subprocess.run([sys.executable, "-c", snippet],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_jitter_stream_is_hash_seed_independent():
    outputs = {_run(JITTER_SNIPPET, PYTHONHASHSEED=seed)
               for seed in ("0", "1", "31337")}
    assert len(outputs) == 1, \
        f"backoff jitter varies with PYTHONHASHSEED: {outputs}"


def test_jitter_streams_are_distinct_per_actor():
    pol = RecoveryPolicy(seed=7)
    streams = [[pol.backoff_ps(a, pol.jitter_rng(tile, name))
                for a in range(1, 7)]
               for tile, name in ((0, "sep3"), (5, "sep3"), (5, "rep1"))]
    assert len({tuple(s) for s in streams}) == 3, streams


def test_jitter_stream_is_reproducible_in_process():
    pol = RecoveryPolicy(seed=9)
    a = [pol.backoff_ps(i, pol.jitter_rng(2, "sep0")) for i in range(1, 9)]
    b = [pol.backoff_ps(i, pol.jitter_rng(2, "sep0")) for i in range(1, 9)]
    assert a == b
    cap = pol.BACKOFF_CAP_PS + pol.JITTER_PS
    assert all(pol.BACKOFF_BASE_PS <= w < cap for w in a), a


def test_backoff_timeline_identical_under_hash_seed_and_shards():
    """The full recovery timeline of a lossy workload — retransmit
    counts, goodput, latency percentiles — survives both interpreter
    hash-seed changes and the causality check bit-for-bit."""
    outputs = {
        _run(FIGR_SNIPPET, PYTHONHASHSEED="0"),
        _run(FIGR_SNIPPET, PYTHONHASHSEED="1"),
        _run(FIGR_SNIPPET, PYTHONHASHSEED="0", REPRO_SHARDS="1"),
        _run(FIGR_SNIPPET, PYTHONHASHSEED="31337", REPRO_SHARDS="1"),
    }
    assert len(outputs) == 1, \
        f"recovery timeline diverges across hash seeds/checks: {outputs}"
