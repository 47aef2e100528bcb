"""TileMux scheduling disciplines.

The paper's TileMux schedules with a preemptive round-robin (section
3.3).  ``SystemConfig.sched`` selects one of two disciplines for the
ready queue:

* ``rr`` — the paper's round-robin: a plain ``collections.deque`` (the
  default, so every golden trace digest is preserved);
* ``edf`` — earliest deadline first (:class:`EdfQueue`).  Deadlines are
  *advisory* and come from the workload layer via
  :meth:`repro.mux.api.ActivityApi.set_deadline` (the serving stack
  stamps each request's deadline on its worker); activities without a
  deadline run FIFO behind all deadlined ones.

Both grant every dispatch the tile's fixed time slice.  The queue is
tile-local state: picks happen on the owning tile, never across tiles
(REP004).
"""

from __future__ import annotations

from collections import deque

__all__ = ["SCHED_POLICIES", "EdfQueue", "make_ready_queue"]

SCHED_POLICIES = ("rr", "edf")


class EdfQueue(deque):
    """Earliest deadline first over the advisory ``deadline_ps``.

    Ties (equal deadlines, and all no-deadline activities) resolve in
    FIFO order — deque position is the tiebreak, so a pure-EDF queue
    with no deadlines degenerates to exact round-robin.
    """

    _NO_DEADLINE = float("inf")

    def popleft(self):
        best_i = 0
        best_d = self[0].deadline_ps
        if best_d is None:
            best_d = self._NO_DEADLINE
        for i in range(1, len(self)):
            d = self[i].deadline_ps
            if d is None:
                d = self._NO_DEADLINE
            if d < best_d:
                best_i, best_d = i, d
        act = self[best_i]
        del self[best_i]
        return act


def make_ready_queue(policy: str) -> deque:
    """An empty ready queue for the ``policy`` discipline."""
    return EdfQueue() if policy == "edf" else deque()
