"""Serial/parallel parity: the runner's core correctness contract.

For fig6 and fig8 (the golden-trace workloads), the parallel runner at
``jobs>=2`` must produce

* the exact same reduced figure structures as calling the point
  function on each point in turn in this process, and
* identical canonical golden-trace digests *per point*
  (:mod:`repro.testing.golden`) — i.e. every simulated event is
  byte-identical whether the point ran in this process or a worker.
"""

import pytest

from repro.core.exps.fig6 import fig6_points
from repro.core.exps.fig8 import fig8_points
from repro.runner import Runner, get_sweep, make_specs

JOBS = 2

# miniature workloads (the golden-trace sizes, so runs stay fast)
SMALL = {
    "fig6": fig6_points(iterations=10, warmup=2),
    "fig8": fig8_points(repetitions=5, warmup=1),
}


def _serial_and_parallel(name):
    specs = make_specs(name, SMALL[name])
    serial = Runner(jobs=1, trace=True)
    serial_out = serial.run_points(specs)
    parallel = Runner(jobs=JOBS, trace=True)
    parallel_out = parallel.run_points(specs)
    return serial_out, parallel_out


@pytest.mark.parametrize("name", ["fig6", "fig8"])
def test_parallel_reduction_equals_serial_run(name):
    sweep, points = get_sweep(name), SMALL[name]
    _, parallel_out = _serial_and_parallel(name)
    reduced = sweep.reduce(points, [o.value for o in parallel_out])
    assert reduced == sweep.reduce(points,
                                   [sweep.point_fn(pt) for pt in points])


@pytest.mark.parametrize("name", ["fig6", "fig8"])
def test_per_point_values_and_golden_digests_match(name):
    serial_out, parallel_out = _serial_and_parallel(name)
    assert len(serial_out) == len(parallel_out)
    for ser, par in zip(serial_out, parallel_out):
        assert ser.spec == par.spec
        assert ser.value == par.value
        # full golden digest: event counts per kind AND the sha256 of
        # the canonical JSON — any divergence in any event fails here
        assert ser.trace_digest is not None
        assert ser.trace_digest["sha256"] == par.trace_digest["sha256"]
        assert ser.trace_digest == par.trace_digest


def test_parallel_run_counts_points_as_simulated():
    runner = Runner(jobs=JOBS)
    result = runner.run_sweep("fig6", SMALL["fig6"])
    assert runner.simulated == 4 and runner.served == 0
    assert set(result) == {"linux_yield_2x", "linux_syscall",
                           "m3v_local", "m3v_remote"}
