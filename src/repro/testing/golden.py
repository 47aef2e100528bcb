"""Canonical trace serialization and golden-file conformance.

The tracer's raw events contain two process-global counters (message
``uid``, packet ``pid``) that are unique but not stable across runs in
one interpreter; :func:`canonical_events` renumbers both by first
appearance, after which the same seed and workload produce
byte-identical JSON (:func:`canonical_json`).

Golden files commit a *digest* — event count, per-kind counts, the
SHA-256 of the full canonical JSON, and the head of the trace for
useful diffs — rather than the trace itself, keeping them small while
still pinning every byte of behavior.  Refresh them after intentional
behavior changes with ``repro trace --refresh`` (or
:func:`write_golden`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.sim.trace import TraceEvent, Tracer, capture

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_WORKLOADS",
    "LINK_CONTENDED",
    "canonical_events",
    "canonical_json",
    "digest",
    "diff_digest",
    "load_golden",
    "record_trace",
    "write_golden",
]

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"
DIGEST_VERSION = 1
HEAD_EVENTS = 32

# Fields renumbered by first appearance (process-global counters).
_RENUMBERED_FIELDS = ("uid", "pid")
# Activity-id fields share one id space; the reserved ids (TileMux's 0
# and ACT_INVALID) are semantically fixed and kept as-is.
_ACT_FIELDS = ("act", "owner", "cur_act", "old_act", "new_act")
_RESERVED_ACTS = frozenset((0, 0xFFFF))


def _events_of(trace: Union[Tracer, Sequence[TraceEvent]]) -> Sequence[TraceEvent]:
    return trace.events if isinstance(trace, Tracer) else trace


def canonical_events(trace) -> List[Dict[str, Any]]:
    """Stable dict form of a trace: ids renumbered by first appearance."""
    remap: Dict[str, Dict[Any, int]] = {f: {} for f in _RENUMBERED_FIELDS}
    act_map: Dict[int, int] = {}
    out: List[Dict[str, Any]] = []
    for seq, ev in enumerate(_events_of(trace)):
        d = ev.as_dict()
        d["seq"] = seq
        for field in _RENUMBERED_FIELDS:
            value = d.get(field)
            if value is None:
                continue
            mapping = remap[field]
            if value not in mapping:
                mapping[value] = len(mapping)
            d[field] = mapping[value]
        for field in _ACT_FIELDS:
            value = d.get(field)
            if value is None or value in _RESERVED_ACTS:
                continue
            if value not in act_map:
                act_map[value] = len(act_map) + 1
            d[field] = act_map[value]
        out.append(d)
    return out


def canonical_json(trace) -> str:
    """Byte-stable JSON of the whole trace (same run ⇒ same bytes)."""
    doc = {"version": DIGEST_VERSION, "events": canonical_events(trace)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(trace) -> Dict[str, Any]:
    """Compact, committable summary pinning the full canonical trace."""
    events = canonical_events(trace)
    doc = {"version": DIGEST_VERSION, "events": events}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    by_kind: Dict[str, int] = {}
    for d in events:
        by_kind[d["kind"]] = by_kind.get(d["kind"], 0) + 1
    return {
        "version": DIGEST_VERSION,
        "n_events": len(events),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "by_kind": dict(sorted(by_kind.items())),
        "head": events[:HEAD_EVENTS],
    }


def diff_digest(expected: Dict[str, Any],
                actual: Dict[str, Any]) -> List[str]:
    """Human-readable differences between two digests ([] if identical)."""
    problems: List[str] = []
    if expected.get("version") != actual.get("version"):
        problems.append(f"digest version {actual.get('version')} != "
                        f"expected {expected.get('version')}")
    if expected.get("n_events") != actual.get("n_events"):
        problems.append(f"event count {actual.get('n_events')} != "
                        f"expected {expected.get('n_events')}")
    exp_kinds = expected.get("by_kind", {})
    act_kinds = actual.get("by_kind", {})
    for kind in sorted(set(exp_kinds) | set(act_kinds)):
        e, a = exp_kinds.get(kind, 0), act_kinds.get(kind, 0)
        if e != a:
            problems.append(f"kind {kind}: {a} events, expected {e}")
    exp_head = expected.get("head", [])
    act_head = actual.get("head", [])
    for i, (e, a) in enumerate(zip(exp_head, act_head)):
        if e != a:
            problems.append(f"first divergence at event #{i}: "
                            f"got {a}, expected {e}")
            break
    if not problems and expected.get("sha256") != actual.get("sha256"):
        problems.append(f"trace hash {actual.get('sha256')} != expected "
                        f"{expected.get('sha256')} (divergence beyond the "
                        f"recorded head)")
    return problems


# -- golden workloads ---------------------------------------------------------
#
# Small, fixed-size versions of the paper's microbenchmarks (every
# point of the figure, in order); the noisy per-step `evq_pop` events
# are excluded to keep traces focused on architectural behavior.

def _fig6_workload() -> None:
    from repro.core.exps.fig6 import fig6_points, run_fig6_point

    for pt in fig6_points(iterations=10, warmup=2):
        run_fig6_point(pt)


def _fig8_workload() -> None:
    from repro.core.exps.fig8 import fig8_points, run_fig8_point

    for pt in fig8_points(repetitions=5, warmup=1):
        run_fig8_point(pt)


def _figs_workload(system: str) -> Callable[[], None]:
    """A smoke-size figS point (faults on, so sleeps, ACK timeouts,
    drops and retransmits all appear in the trace)."""
    def workload() -> None:
        from repro.core.exps.figs import FigSPoint, run_figs_point

        run_figs_point(FigSPoint(system, 1.0, requests=6, preload=8))
    return workload


GOLDEN_WORKLOADS: Dict[str, Callable[[], None]] = {
    "fig6": _fig6_workload,
    "fig8": _fig8_workload,
    "figS_m3v": _figs_workload("m3v"),
    "figS_m3x": _figs_workload("m3x"),
}

#: goldens whose packets contend for NoC links.  The batched fabric
#: reserves a packet's whole route at injection and the per-hop one
#: (``REPRO_NOC_BATCH=0``) each link on arrival, so contended packets
#: are served in a different order (DESIGN.md §13): only the default
#: batched fabric reproduces these digests.
LINK_CONTENDED = frozenset({"figS_m3v", "figS_m3x"})


def record_trace(name: str) -> Tracer:
    """Run golden workload ``name`` under tracing; returns the tracer."""
    workload = GOLDEN_WORKLOADS[name]
    with capture(exclude=("evq_pop",)) as tracer:
        workload()
    return tracer


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> Dict[str, Any]:
    with open(golden_path(name)) as fh:
        return json.load(fh)


def write_golden(name: str, trace) -> Path:
    path = golden_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(digest(trace), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
