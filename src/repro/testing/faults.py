"""Seeded fault injection for whole-system stress tests.

Injectors perturb *timing and resources*, never protocol correctness —
the point is to drive the system through adversarial interleavings
(raced deposits, queue overruns, TLB thrash, preemption at awkward
points) while the invariant checkers
(:mod:`repro.testing.invariants`) watch the execution.

All randomness flows through one explicit ``random.Random(seed)`` held
by the :class:`repro.faults.FaultPlan`, so a (seed, workload) pair
reproduces the exact same perturbed schedule.  Every injector bounds
its activity by a deadline in simulated time so the event heap still
drains and tests can run the simulation to quiescence afterwards.

Usage::

    plat = build_system(SystemConfig(kind="m3v", ...))
    plan = FaultPlan(seed=7, deadline_ps=2_000_000_000)
    plan.add(NocJitter(prob=0.4))
    plan.add(TlbPressure(capacity=2))
    plan.add(ForcedPreemption(mean_gap_ps=200_000_000))
    plan.apply(plat)
    ...  # run the workload
"""

from __future__ import annotations

from repro.dtu.vdtu import VDtu
from repro.faults import DEFAULT_DEADLINE_PS, FaultPlan

__all__ = ["NocJitter", "TlbPressure", "ForcedPreemption", "standard_plan"]


class NocJitter:
    """Randomly delays packet injection, causing delivery reorder.

    Packets injected concurrently on disjoint links may overtake each
    other when one is held back — the jitter exercises the raced
    deposit paths (core requests vs. activity switches) and the
    backpressure machinery.
    """

    def __init__(self, prob: float = 0.3, max_delay_ps: int = 20_000_000):
        self.prob = prob
        self.max_delay_ps = max_delay_ps

    def apply(self, plan: "FaultPlan", platform) -> None:
        sim, fabric = platform.sim, platform.fabric
        rng, deadline = plan.rng, plan.deadline_ps
        orig_send = fabric.send

        def jittered_send(packet):
            if sim.now < deadline and rng.random() < self.prob:
                delay = rng.randrange(1, self.max_delay_ps)

                def _held():
                    yield delay
                    orig_send(packet)

                return sim.process(_held(), name=f"jitter-pkt{packet.pid}")
            return orig_send(packet)

        fabric.send = jittered_send


class TlbPressure:
    """Shrinks the vDTU TLBs and randomly sheds entries.

    Forces frequent translate TMCalls and TLB refills, interleaving
    TileMux work with message delivery.  No-op on M3x tiles (their DTU
    has no TLB).
    """

    def __init__(self, capacity: int = 2, shed_gap_ps: int = 500_000_000):
        self.capacity = capacity
        self.shed_gap_ps = shed_gap_ps

    def apply(self, plan: "FaultPlan", platform) -> None:
        sim, rng, deadline = platform.sim, plan.rng, plan.deadline_ps
        for _tid, tile in sorted(platform.tiles.items()):
            if not isinstance(tile.dtu, VDtu):
                continue
            tlb = tile.dtu.tlb
            tlb.capacity = max(1, self.capacity)
            while len(tlb) > tlb.capacity:
                tlb._evict()
            sim.process(self._shed(sim, rng, deadline, tlb),
                        name=f"tlb-pressure-{tile.dtu.tile}")

    def _shed(self, sim, rng, deadline, tlb):
        while sim.now < deadline:
            yield rng.randrange(1, self.shed_gap_ps)
            entries = [e for e in tlb._entries.values() if not e.pinned]
            if entries:
                victim = entries[rng.randrange(len(entries))]
                tlb.invalidate(victim.act, victim.virt_page)


class ForcedPreemption:
    """Expires the running activity's time slice at random points.

    Preemption then happens at the next interrupt window, interleaving
    activity switches with whatever the workload was doing.  No-op on
    M3x tiles (RCTMux has no timer; the controller drives switches).
    """

    def __init__(self, mean_gap_ps: int = 300_000_000):
        self.mean_gap_ps = mean_gap_ps

    def apply(self, plan: "FaultPlan", platform) -> None:
        sim, rng, deadline = platform.sim, plan.rng, plan.deadline_ps
        for _tid, tile in sorted(platform.tiles.items()):
            mux = tile.mux
            if mux is None or not hasattr(mux, "timeslice_ps"):
                continue
            sim.process(self._expire(sim, rng, deadline, mux),
                        name=f"forced-preempt-{mux.tile_id}")

    def _expire(self, sim, rng, deadline, mux):
        while sim.now < deadline:
            yield rng.randrange(1, 2 * self.mean_gap_ps)
            ctx = mux.current
            if ctx is not None and ctx.slice_end > sim.now:
                ctx.slice_end = sim.now


def standard_plan(seed: int,
                  deadline_ps: int = DEFAULT_DEADLINE_PS) -> FaultPlan:
    """The default stress mix used by the system-level tests."""
    return FaultPlan(seed, deadline_ps=deadline_ps).add(
        NocJitter()).add(ForcedPreemption())
