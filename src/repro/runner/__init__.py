"""Parallel experiment runner with content-addressed result caching.

The paper's evaluation is a set of *sweeps* — independent simulation
points per figure — and this package runs them the way the paper's own
system runs activities: no serialized central bottleneck.  A figure is
declared as points + a reducer (:mod:`repro.runner.registry`), points
fan out over a process pool and results are collected in order
(:mod:`repro.runner.scheduler`), and every point's result is cached on
disk under a content address covering its config and the code that
produced it (:mod:`repro.runner.cache`).

``Runner().run_sweep(name, points)`` is the one way to run a whole
figure; the points default to the sweep's paper-scale points, and
:mod:`repro.core.exps.plans` holds the smaller sizes.

The determinism contract: for every sweep, ``Runner(jobs=N)`` returns
bit-identical reduced results — and, under ``trace=True``, identical
canonical golden-trace digests per point — to calling the sweep's
point function on each point in turn in this process, for any ``N``
and any submission order.  ``tests/test_runner_parity.py`` enforces
this.
"""

from repro.runner.cache import (
    CACHE_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    canonical_json,
    canonical_value,
    file_fingerprint,
)
from repro.runner.points import PointSpec, make_specs, point_seed
from repro.runner.registry import (
    Sweep,
    get_sweep,
    register,
    sweep_names,
    unregister,
)
from repro.runner.scheduler import PointOutcome, Runner, run_point

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "PointOutcome",
    "PointSpec",
    "ResultCache",
    "Runner",
    "Sweep",
    "cache_key",
    "canonical_json",
    "canonical_value",
    "file_fingerprint",
    "get_sweep",
    "make_specs",
    "point_seed",
    "register",
    "run_point",
    "sweep_names",
    "unregister",
]
