"""Golden-conformance sweep: every committed digest, every scheduler.

Replays each digest under ``tests/golden/`` and asserts the canonical
trace is byte-identical to what the digest pins — under the default
calendar scheduler, the reference heap scheduler, and with NoC hop
batching disabled.  This is the blanket guarantee behind the engine
optimizations: whatever the event queue or the fabric's event shape,
the simulated histories may not move by a single byte.  The figS
goldens contend for links, where the per-hop fabric is a different
link model (``LINK_CONTENDED``), so they replay on the batched fabric
only.
"""

import json
from pathlib import Path

import pytest

from repro.testing.golden import (
    GOLDEN_DIR,
    GOLDEN_WORKLOADS,
    LINK_CONTENDED,
    diff_digest,
    digest,
    load_golden,
    record_trace,
)

GOLDEN_NAMES = sorted(p.stem for p in Path(GOLDEN_DIR).glob("*.json"))

# (scheduler, REPRO_NOC_BATCH) — the engine/fabric configurations that
# must all reproduce the committed traces; a link-contended golden
# pins the batched fabric only (the per-hop one is another link model)
CONFIGS = [
    ("calendar", "1", "calendar-batched"),
    ("heap", "1", "heap-batched"),
    ("calendar", "0", "calendar-lazy-noc"),
    ("heap", "0", "heap-lazy-noc"),
]
CASES = [pytest.param(name, scheduler, noc_batch, id=f"{cid}-{name}")
         for scheduler, noc_batch, cid in CONFIGS
         for name in GOLDEN_NAMES
         if noc_batch == "1" or name not in LINK_CONTENDED]


def test_every_golden_has_a_workload():
    """A digest nothing replays is a silent hole in the sweep."""
    assert GOLDEN_NAMES, f"no golden digests found in {GOLDEN_DIR}"
    missing = [n for n in GOLDEN_NAMES if n not in GOLDEN_WORKLOADS]
    assert not missing, f"golden digests with no replay workload: {missing}"


@pytest.mark.golden
@pytest.mark.parametrize("name,scheduler,noc_batch", CASES)
def test_golden_digest_reproduces(name, scheduler, noc_batch, monkeypatch):
    from repro.sim import engine

    monkeypatch.setenv("REPRO_NOC_BATCH", noc_batch)
    engine.set_default_scheduler(scheduler)
    try:
        actual = digest(record_trace(name))
    finally:
        engine.set_default_scheduler(None)
    expected = load_golden(name)
    problems = diff_digest(expected, actual)
    assert not problems, (
        f"{name} diverged under scheduler={scheduler} "
        f"noc_batch={noc_batch}:\n  " + "\n  ".join(problems))


def test_trace_cli_names_every_golden():
    """``repro trace`` lists the goldens without importing the models."""
    from repro.cli import GOLDENS

    assert GOLDENS == tuple(GOLDEN_WORKLOADS)


@pytest.mark.golden
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_file_is_normalized(name):
    """Digests are committed in the exact form write_golden emits, so
    a refresh with unchanged behavior is always a no-op diff."""
    path = Path(GOLDEN_DIR) / f"{name}.json"
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
