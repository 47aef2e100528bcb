"""Hardware-fault model: the injector that genuinely breaks delivery.

Unlike :mod:`repro.testing.faults` (which only perturbs *timing*),
:class:`LossyLinks` violates the fault-free NoC contract — packets
vanish or arrive corrupted — and a platform survives it only if the
recovery layer (:mod:`repro.mux.recovery`) is armed.  It therefore
refuses to install on a platform without a
:class:`~repro.mux.recovery.RecoveryPolicy`.  It is the fault figR,
figS and the chaos campaigns inject, through :meth:`FaultPlan.lossy`.

Scoping: faults only hit the *user-message* plane — MSG packets carrying
a recovery sequence number and the tagged acknowledgements answering
them, between processing tiles.  Packets to or from the controller and
memory tiles are never touched: they model a protected control network
(a dedicated virtual channel with link-level retransmission in real
interconnects).  Dropping those would not test recovery, it would leak
kernel credits and wedge DMA — failure modes the paper's systems never
claim to survive.

All randomness flows through one ``random.Random`` held by the plan, and
the injector bounds its activity by a deadline in simulated time, so a
(seed, workload) pair reproduces the same faulty schedule and the event
heap still drains to quiescence.

Usage::

    plat = build_system(SystemConfig(kind="m3v", ...))
    enable_recovery(plat)
    plan = FaultPlan(seed=7, deadline_ps=2_000_000_000)
    plan.add(LossyLinks(drop=0.05, corrupt=0.02))
    plan.apply(plat)
    ...  # run the workload to quiescence
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.mux.recovery import RecoveryPolicy, enable_recovery
from repro.noc.packet import Packet, PacketKind

__all__ = [
    "FaultPlan",
    "LossyLinks",
    "RecoveryPolicy",
    "enable_recovery",
]

DEFAULT_DEADLINE_PS = 5_000_000_000  # 5 ms of simulated time


def _emit(sim, kind: str, **fields) -> None:
    tracer = sim.tracer
    if tracer is not None:
        tracer.emit(sim, kind, **fields)


def _protected_tiles(platform) -> frozenset:
    return frozenset({platform.ctrl_tile_id, *platform.mem_tile_ids})


def _require_recovery(platform, injector: str) -> None:
    armed = all(tile.dtu.recovery is not None
                for tile in platform.proc_tiles())
    if not armed:
        raise RuntimeError(
            f"{injector} breaks message delivery; call "
            f"enable_recovery(platform) before applying it")


class LossyLinks:
    """Seeded packet loss and corruption on the user-message plane.

    Targets MSG packets that carry a recovery sequence number and the
    tagged acknowledgements completing a transaction — exactly the
    traffic the retransmission layer can recover.  Credit-return ACKs
    (``tag is None``) stay reliable: losing one silently leaks a credit,
    which no end-to-end protocol can detect, so real designs return
    credits over the flow-controlled link layer.
    """

    def __init__(self, drop: float = 0.05, corrupt: float = 0.0):
        self.drop = drop
        self.corrupt = corrupt

    def _targetable(self, pkt: Packet, protected: frozenset) -> bool:
        if pkt.src in protected or pkt.dst in protected:
            return False
        if pkt.kind is PacketKind.MSG:
            return getattr(pkt.payload, "chan", None) is not None
        if pkt.kind is PacketKind.ACK:
            return pkt.tag is not None
        return False

    def apply(self, plan: "FaultPlan", platform) -> None:
        _require_recovery(platform, "LossyLinks")
        sim, fabric, stats = platform.sim, platform.fabric, platform.stats
        rng, deadline = plan.rng, plan.deadline_ps
        protected = _protected_tiles(platform)
        orig_send = fabric.send

        def lossy_send(packet: Packet):
            if sim.now < deadline and self._targetable(packet, protected):
                roll = rng.random()
                if roll < self.drop:
                    uid = getattr(packet.payload, "uid", None)
                    _emit(sim, "pkt_drop", src=packet.src, dst=packet.dst,
                          pkt=packet.kind.value, uid=uid)
                    stats.counter("faults/pkts_dropped").add()
                    return None
                if (packet.kind is PacketKind.MSG
                        and roll < self.drop + self.corrupt):
                    packet.payload.corrupt = True
                    _emit(sim, "pkt_corrupt", src=packet.src, dst=packet.dst,
                          uid=packet.payload.uid)
                    stats.counter("faults/pkts_corrupted").add()
            return orig_send(packet)

        fabric.send = lossy_send


class FaultPlan:
    """A seeded collection of fault injectors for one platform: the
    lossy links here or the timing perturbations of
    :mod:`repro.testing.faults`, sharing ``rng`` and ``deadline_ps``."""

    def __init__(self, seed, deadline_ps: int = DEFAULT_DEADLINE_PS,
                 injectors: Optional[List] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.deadline_ps = deadline_ps
        self.injectors: List = list(injectors) if injectors else []

    def add(self, injector) -> "FaultPlan":
        self.injectors.append(injector)
        return self

    def apply(self, platform) -> "FaultPlan":
        for injector in self.injectors:
            injector.apply(self, platform)
        return self

    @classmethod
    def lossy(cls, seed, rate: float,
              deadline_ps: int = DEFAULT_DEADLINE_PS) -> "FaultPlan":
        """The figR mix: loss + corruption scaled by one ``rate`` knob."""
        plan = cls(seed, deadline_ps=deadline_ps)
        if rate > 0:
            plan.add(LossyLinks(drop=rate, corrupt=rate / 4))
        return plan
