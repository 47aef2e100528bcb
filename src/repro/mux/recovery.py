"""The recovery policy: what the software stack does about hardware faults.

A :class:`RecoveryPolicy` is shared configuration for every layer that
participates in fault tolerance:

* the DTU arms an **ack timeout** on every SEND/REPLY transaction, so a
  lost packet (or lost acknowledgement) completes the command with
  ``DtuError.TIMEOUT`` instead of hanging the core forever;
* the mux-level send helpers (:mod:`repro.mux.api`) retransmit timed-out
  or corrupted messages with **bounded retries, exponential backoff and
  seeded jitter**, numbering each logical message so the receiving DTU
  can drop duplicates (at-most-once delivery);
* TileMux runs a **watchdog**: an activity that burns
  ``WATCHDOG_SLICES`` full timeslices without ever blocking or yielding
  is reported to the controller;
* the controller tracks per-tile fault reports and **quarantines** a
  tile after ``QUARANTINE_FAULTS`` of them, steering new activity
  placements away from it (degraded mode instead of a deadlocked run).

The protocol's timing and bounds are class constants; a policy carries
only the seed of its jitter streams, the one value a figure varies.
Everything defaults to *off*: a platform without a policy installed
behaves — trace-byte for trace-byte — like the plain fault-free model.
Install one with :func:`enable_recovery`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RecoveryPolicy:
    """The fault-recovery protocol (see module docstring)."""

    ACK_TIMEOUT_PS = 40_000_000      # 40 us >> any uncontended RTT
    MAX_RETRIES = 16                 # retransmissions per logical message:
                                     # losing one outright is ~(2*rate)^17
    BACKOFF_BASE_PS = 2_000_000      # first backoff: 2 us
    BACKOFF_FACTOR = 2.0             # exponential growth per attempt
    BACKOFF_CAP_PS = 50_000_000      # ceiling on the exponential part
    JITTER_PS = 1_000_000            # uniform [0, jitter) added per wait
    WATCHDOG_SLICES = 4              # TileMux: consecutive full slices
    QUARANTINE_FAULTS = 3            # controller: reports before quarantine

    seed: int = 0                    # namespaces the jitter streams

    def backoff_ps(self, attempt: int, rng: random.Random) -> int:
        """Backoff before retransmission ``attempt`` (1-based)."""
        base = self.BACKOFF_BASE_PS * self.BACKOFF_FACTOR ** (attempt - 1)
        return min(int(base), self.BACKOFF_CAP_PS) + rng.randrange(
            self.JITTER_PS)

    def jitter_rng(self, tile_id: int, name: str) -> random.Random:
        """A deterministic per-actor jitter stream.

        Seeded from a string so the stream is identical across
        interpreters and hash seeds (``random.Random(str)`` hashes the
        bytes deterministically), and independent of any process-global
        id counters — a point re-run in a fresh worker process draws the
        same jitter as a serial run.
        """
        return random.Random(f"recovery:{self.seed}:{tile_id}:{name}")


def enable_recovery(platform, policy: RecoveryPolicy = None) -> RecoveryPolicy:
    """Install ``policy`` on every processing tile of ``platform``.

    Arms the per-DTU ack timers, the mux-level retransmission layer and
    the TileMux watchdog, whose reports feed the controller's
    tile-health tracking.  The controller and memory tiles keep their
    plain DTUs: the kernel and DMA channels model a protected control
    network (a dedicated virtual channel in real interconnects), which
    is also why the fault injector in :mod:`repro.faults` never targets
    them.
    """
    if policy is None:
        policy = RecoveryPolicy()
    for tile in platform.proc_tiles():
        tile.dtu.recovery = policy
        if tile.mux is not None:
            tile.mux.recovery = policy
    return policy
