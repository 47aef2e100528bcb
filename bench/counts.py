"""Exact per-layer work counts from one traced rep.

The count run installs a non-recording tracer for the rep
(``repro.sim.trace.capture(record=False)``) with a subscriber that
counts event kinds and, for ``evq_pop``, the class of the popped engine
event.  It also sums ``stats.snapshot()`` counters over every system
the rep builds.  The simulation is deterministic, so every count
repeats exactly; a count that moves between two commits is a change in
the work the program does.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

from workloads import PINNED_SEED, Rep, Workload, run_rep

#: metric -> the ``stats`` counters it sums
STAT_COUNTS: Dict[str, Tuple[str, ...]] = {
    "noc.packets": ("noc/packets",),
    "dtu.sends": ("dtu/sends",),
    "dtu.core_reqs": ("vdtu/core_reqs",),
    "dtu.core_req_overruns": ("vdtu/core_req_overruns",),
    "mux.ctx_switches": ("tilemux/ctx_switches", "m3x/switches"),
    "mux.recovery.retransmits": ("recovery/retransmits",),
    "kernel.slow_paths": ("m3x/slow_paths",),
    "kernel.syscalls": ("ctrl/syscalls",),
    "services.serving.backpressure": ("serving/backpressure",),
}

#: metric -> the trace event kind it counts.  Both muxes emit
#: ``act_block``; only TileMux preempts.
TRACE_COUNTS: Dict[str, str] = {
    "sim.events": "evq_pop",
    "dtu.bounces": "msg_bounce",
    "mux.blocks": "act_block",
    "mux.preemptions": "preempt",
}

#: engine event classes reported on their own (``evq_pop`` ``cls``)
EVQ_CLASSES = ("Event", "Timeout", "Process", "_Arrival")


def count_rep(workload: Workload, smoke: bool) -> Tuple[Rep, Dict[str, Dict]]:
    """One rep at the pinned seed; returns it with its counts:
    ``{"trace": kinds, "evq": classes, "stats": counters}``."""
    from repro.api import system as api_system
    from repro.sim import trace

    kinds: Counter = Counter()
    classes: Counter = Counter()
    systems = []

    def on_event(ev) -> None:
        kinds[ev.kind] += 1
        if ev.kind == "evq_pop":
            classes[ev.fields["cls"]] += 1

    init = api_system.System.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        systems.append(self)

    api_system.System.__init__ = recording_init
    try:
        with trace.capture(record=False) as tracer:
            tracer.subscribe(on_event)
            rep = run_rep(workload, PINNED_SEED, smoke)
    finally:
        api_system.System.__init__ = init
    stats: Counter = Counter()
    for system in systems:
        for name, value in system.stats.snapshot().items():
            if name.startswith("count/"):
                stats[name[len("count/"):]] += value
    return rep, {"trace": dict(sorted(kinds.items())),
                 "evq": dict(sorted(classes.items())),
                 "stats": dict(sorted(stats.items()))}
