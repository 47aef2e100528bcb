"""Host-speed sampling: scales measured host times to a reference speed.

The benchmark runs on shared hosts whose speed drifts with other
tenants' load, in phases from seconds to minutes long.  On the 2-CPU
host the benchmark was written on, ten back-to-back runs of one
workload gave median rep times from 3.55 s to 6.97 s for identical
simulated work.  No number of reps that fits in a run averages that
out.

:class:`HostSpeed` samples the host's speed *while* a measured block
runs.  A ``SIGALRM`` interval timer fires every :data:`INTERVAL_S`,
and each time it runs a fixed micro-probe: :data:`PROBE_ITERATIONS`
rounds of pure-Python work over the interpreter paths the simulator
leans on (generator resumption, method calls, ``__slots__``
attributes, dict and heap operations).  The probe imports nothing from
the program, so no change to the program can move it.  The block's
time without the probes is then scaled by the mean of
``REFERENCE_PROBE_S / probe`` over its samples (raised to
:data:`SENSITIVITY`, below), which is the block's mean speed relative
to the reference.  Over 178 back-to-back reps of
``scale_m3v64``, raw rep times spread 17.8% (quartile distance over
median) and scaled ones 3.5%.  Probes taken only before and after each
rep left 14.5%, because they miss the phases inside the rep.

The simulator slows down a little less than the probe.  Over 417 reps
of the four workloads taken round-robin, log rep time followed log
probe time with slopes from 0.81 (``rpc_m3v``) to 0.97
(``scale_m3v64``).  Each sample's speed is therefore raised to
:data:`SENSITIVITY`, the mean slope.  In a phase where the probe runs
twice as slow, scaled times stay within about 7% of a calm phase's.
Pointer-chasing probes over 4 MB and 20 MB object graphs, alone or
mixed with this one, matched no better.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Optional

#: seconds between probes
INTERVAL_S = 0.05
#: rounds of reference work per probe
PROBE_ITERATIONS = 1000
#: probe time on the reference host (the 2-CPU Xeon of ``baseline/``)
#: in a calm phase.  It fixes the scale of every reported time, so it
#: must never change; otherwise results before and after the change
#: cannot be compared.
REFERENCE_PROBE_S = 0.00055
#: the simulator's log slowdown per unit of the probe's (see above)
SENSITIVITY = 0.91


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


def _ticker():
    total = 0
    while True:
        total += yield total


def _work(n: int) -> int:
    nodes = [_Node(i) for i in range(64)]
    table: dict = {}
    heap: list = []
    ticker = _ticker()
    next(ticker)
    for i in range(n):
        value = nodes[i & 63].bump(i)
        table[i & 511] = table.get(i & 511, 0) + value
        heapq.heappush(heap, (i * 7919) & 1023)
        if len(heap) > 32:
            heapq.heappop(heap)
        ticker.send(1)
    return len(table)


def probe_s() -> float:
    """Seconds for one micro-probe."""
    t0 = time.perf_counter()
    _work(PROBE_ITERATIONS)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples host speed while a ``with`` block runs.

    After the block: ``gross`` is its wall time, ``net`` the same
    without the probes, ``samples`` the probe times and ``factor`` what
    a raw time measured during the block is multiplied by to express it
    at the reference speed (probes removed).
    """

    def __init__(self):
        self.samples: List[float] = []
        self.gross = self.net = 0.0
        self.factor = 1.0
        self._running = False
        self._t0 = 0.0

    def _tick(self, signum: Optional[int] = None, frame=None) -> None:
        # a tick that was already pending when the block ended, or that
        # fires while the last probe still runs, is dropped
        if self._running:
            self._running = False
            try:
                self.samples.append(probe_s())
            finally:
                self._running = True

    def start(self) -> "HostSpeed":
        # the handler stays installed after stop(): restoring the default
        # action could let a tick that is already pending end the process
        self.samples = []
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> "HostSpeed":
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False
        self.gross = time.perf_counter() - self._t0
        self.net = self.gross - sum(self.samples)
        if not self.samples:  # shorter than one interval: probe once now
            self.samples.append(probe_s())
        speed = statistics.mean((REFERENCE_PROBE_S / p) ** SENSITIVITY
                                for p in self.samples)
        self.factor = speed * self.net / self.gross if self.gross else speed
        return self

    def __enter__(self) -> "HostSpeed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def scaled(self) -> float:
        """The block's own time at reference speed."""
        return self.gross * self.factor
