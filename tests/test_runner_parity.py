"""Serial/parallel parity: the runner's core correctness contract.

For fig6 and fig8 (the golden-trace workloads of PR 1), the parallel
runner at ``jobs>=2`` must produce

* the exact same reduced figure structures as the serial
  ``run_fig6``/``run_fig8`` entry points, and
* identical canonical golden-trace digests *per point*
  (:mod:`repro.testing.golden`) — i.e. every simulated event is
  byte-identical whether the point ran in this process or a worker.
"""

import pytest

from repro.core.exps.fig6 import Fig6Params, run_fig6
from repro.core.exps.fig8 import Fig8Params, run_fig8
from repro.runner import Runner, get_sweep, make_specs

JOBS = 2

# miniature workloads (the golden-trace sizes, so runs stay fast)
SMALL = {
    "fig6": (Fig6Params(iterations=10, warmup=2), run_fig6),
    "fig8": (Fig8Params(repetitions=5, warmup=1), run_fig8),
}


def _serial_and_parallel(name):
    params, serial_fn = SMALL[name]
    specs = make_specs(name, params)
    serial = Runner(jobs=1, trace=True)
    serial_out = serial.run_points(specs)
    parallel = Runner(jobs=JOBS, trace=True)
    parallel_out = parallel.run_points(specs)
    return params, serial_fn, serial_out, parallel_out


@pytest.mark.parametrize("name", ["fig6", "fig8"])
def test_parallel_reduction_equals_serial_run(name):
    params, serial_fn, _, parallel_out = _serial_and_parallel(name)
    reduced = get_sweep(name).reduce(params,
                                     [o.value for o in parallel_out])
    assert reduced == serial_fn(params)


@pytest.mark.parametrize("name", ["fig6", "fig8"])
def test_per_point_values_and_golden_digests_match(name):
    _, _, serial_out, parallel_out = _serial_and_parallel(name)
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
    result = runner.run_sweep("fig6", SMALL["fig6"][0])
    assert runner.simulated == 4 and runner.served == 0
    assert set(result) == {"linux_yield_2x", "linux_syscall",
                           "m3v_local", "m3v_remote"}
