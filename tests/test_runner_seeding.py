"""Per-point RNG seeding: results must not depend on scheduling.

Every point's RNG is seeded from ``(sweep name, point index)`` right
before it runs — never inherited from whatever the worker process (or
the serial loop) executed previously.  The regression here uses a toy
sweep whose point function *only* consumes the process-global
``random`` stream: shuffling submission order, and moving between the
serial path and a 2-worker pool, must not change a single value.
"""

import random
from dataclasses import dataclass

import pytest

from repro.runner import Runner, Sweep, make_specs, point_seed, register, \
    unregister


@dataclass(frozen=True)
class NoiseCfg:
    idx: int


def _noise_point(_cfg):
    # deliberately reads the process-global RNG: without per-point
    # seeding this value would depend on what ran before in the worker
    return [random.random() for _ in range(3)]


def _noise_points():
    return [NoiseCfg(i) for i in range(6)]


def _noise_reduce(_points, values):
    return values


@pytest.fixture
def noise_sweep():
    register(Sweep("toy-noise", _noise_points, _noise_point, _noise_reduce))
    yield "toy-noise"
    unregister("toy-noise")


def _values_by_index(outcomes):
    return {o.spec.index: o.value for o in outcomes}


def test_point_seed_is_deterministic_and_distinct():
    assert point_seed("fig6", 0) == point_seed("fig6", 0)
    assert point_seed("fig6", 0) != point_seed("fig6", 1)
    assert point_seed("fig6", 0) != point_seed("fig8", 0)


def test_results_survive_submission_order_shuffle(noise_sweep):
    specs = make_specs(noise_sweep)
    in_order = _values_by_index(Runner(jobs=1).run_points(specs))

    shuffled = specs[:]
    random.Random(42).shuffle(shuffled)
    assert [s.index for s in shuffled] != [s.index for s in specs]
    reshuffled = _values_by_index(Runner(jobs=1).run_points(shuffled))
    assert reshuffled == in_order

    # each point drew from its own seed, not one shared stream
    assert len({tuple(v) for v in in_order.values()}) == len(in_order)


def test_results_survive_worker_assignment(noise_sweep):
    specs = make_specs(noise_sweep)
    serial = _values_by_index(Runner(jobs=1).run_points(specs))

    shuffled = specs[:]
    random.Random(7).shuffle(shuffled)
    pooled = _values_by_index(Runner(jobs=2).run_points(shuffled))
    assert pooled == serial


def test_outcomes_keep_submission_order(noise_sweep):
    specs = make_specs(noise_sweep)
    shuffled = specs[:]
    random.Random(3).shuffle(shuffled)
    outcomes = Runner(jobs=2).run_points(shuffled)
    assert [o.spec for o in outcomes] == shuffled
