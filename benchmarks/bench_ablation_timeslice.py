"""Ablation: TileMux timeslice length.

TileMux uses a preemptive round-robin scheduler with time slices
(section 4.2).  For communication-driven co-location (two compute
spinners sharing a tile with an RPC pair), shorter slices mean more
preemption overhead; longer slices delay nothing here because blocked
activities are switched immediately.  The sweep shows the overhead
trend that motivates a millisecond-scale slice.
"""

from conftest import paper_scale, print_table

from repro.api import SystemConfig, build_system
from repro.core.exps.common import rendezvous


def measure(timeslice_us: float, spin_chunks: int) -> float:
    """Two spinners co-located; returns total makespan in ms."""
    plat = build_system(SystemConfig(timeslice_us=timeslice_us))
    done = []

    def spinner(api):
        for _ in range(spin_chunks):
            yield from api.compute(60_000)
        done.append(api.sim.now)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("spin-a", 0, spinner))
    b = plat.run_proc(ctrl.spawn("spin-b", 0, spinner))
    plat.sim.run_until_event(a.exit_event, limit=10**15)
    plat.sim.run_until_event(b.exit_event, limit=10**15)
    switches = plat.stats.counter_value("tilemux/ctx_switches")
    return max(done) / 1e9, switches


def test_ablation_timeslice(benchmark):
    chunks = 120 if paper_scale() else 40

    def sweep():
        return {us: measure(us, chunks) for us in (100.0, 1000.0, 10000.0)}

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [f"timeslice {us:7.0f} us: makespan {ms:8.2f} ms, "
            f"{switches:4d} context switches"
            for us, (ms, switches) in data.items()]
    print_table("Ablation: TileMux timeslice", rows)

    # shorter slices -> more switches and (slightly) longer makespan
    assert data[100.0][1] > data[10000.0][1]
    assert data[100.0][0] >= data[10000.0][0]
