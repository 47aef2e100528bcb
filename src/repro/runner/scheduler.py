"""The process-pool scheduler.

:class:`Runner` fans point specs out over ``jobs`` worker processes
(``concurrent.futures.ProcessPoolExecutor``) and collects results *in
submission order*, so the values handed to a sweep's reducer are
positionally identical to what the serial path produces.  Three
properties make parallel == serial exact:

* point functions are pure — each builds its own platforms, and trace
  canonicalization (:mod:`repro.testing.golden`) renumbers the
  process-global counters, so a point behaves identically in a fresh
  worker and mid-way through a serial run;
* every point's RNG is seeded from ``(sweep, index)`` before it runs
  (:func:`repro.runner.points.point_seed`), never from inherited
  process state, so worker assignment and completion order are
  invisible;
* results are placed by the position their spec was submitted at, not
  by completion order.

With a :class:`~repro.runner.cache.ResultCache` attached, points whose
key already has an entry are served without simulating; the rest run
and are written back.  ``trace=True`` additionally captures each
point's canonical trace digest (the golden-trace machinery), which the
parity tests compare between serial and parallel executions.
``metrics=True`` and ``profile=True`` attach a metrics snapshot or a
self-profile to each outcome; the cache stores results only, so a
metered or profiled runner always simulates and takes no cache.
"""

from __future__ import annotations

import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.report import progress_line
from repro.runner import registry
from repro.runner.cache import ResultCache, cache_key, canonical_value, code_fingerprint
from repro.runner.points import PointSpec, make_specs

__all__ = ["PointOutcome", "Runner", "run_point"]


@dataclass
class PointOutcome:
    """One executed (or cache-served) point, in submission order.

    ``error`` is None for a successful point; for a point that raised
    (twice — every failure is retried once with its original seed) it
    holds the formatted exception, ``value`` is None, and nothing was
    cached, so a later run re-attempts exactly that point."""

    spec: PointSpec
    value: Any
    cached: bool
    elapsed_s: float
    key: Optional[str] = None
    trace_digest: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_point(spec: PointSpec, with_trace: bool = False,
              with_metrics: bool = False, with_profile: bool = False
              ) -> Tuple[Any, Optional[Dict[str, Any]], float,
                         Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Execute one point: seed its RNG, simulate, optionally observe.

    Returns ``(value, trace_digest, wall_seconds, metrics, profile)``;
    the last three are None unless the matching flag is set.  This is
    the single execution path for both the serial (``jobs=1``) and the
    pooled case — workers call it via :func:`_pool_run`; metrics and
    profile snapshots cross the pool as their JSON-safe dict forms.
    """
    sweep = registry.get_sweep(spec.sweep)
    random.seed(spec.seed)
    metrics_reg = profiler = None
    start = time.perf_counter()
    with ExitStack() as stack:
        if with_metrics:
            from repro.obs import capture_metrics

            metrics_reg = stack.enter_context(capture_metrics())
        if with_profile:
            from repro.obs import capture_profile

            profiler = stack.enter_context(capture_profile())
        if with_trace:
            from repro.sim.trace import capture
            from repro.testing.golden import digest

            with capture(exclude=("evq_pop",)) as tracer:
                value = sweep.point_fn(spec.config)
            trace_digest = digest(tracer)
        else:
            value = sweep.point_fn(spec.config)
            trace_digest = None
    elapsed = time.perf_counter() - start
    return (value, trace_digest, elapsed,
            metrics_reg.as_dict() if metrics_reg is not None else None,
            profiler.stop().as_dict() if profiler is not None else None)


def _pool_run(args: Tuple[PointSpec, bool, bool, bool]):
    spec, with_trace, with_metrics, with_profile = args
    return run_point(spec, with_trace, with_metrics, with_profile)


class Runner:
    """Schedules point specs over a process pool, with caching.

    ``jobs=1`` runs everything in-process (the serial path).  A cache
    cannot be combined with ``metrics`` or ``profile`` (``ValueError``):
    a served point has no snapshot to give.  Counters:
    ``simulated`` points actually executed, ``served`` points answered
    from cache, ``failed`` points that raised twice (their outcomes
    carry ``error`` and are listed in ``failures``);
    ``cache_hits``/``cache_misses`` mirror the attached cache's
    counters.  A failing point never aborts the sweep: its siblings
    run (and cache) normally and the reducer sees ``None`` in its
    position.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 trace: bool = False, progress: bool = False,
                 stream=None, metrics: bool = False, profile: bool = False):
        if cache is not None and (metrics or profile):
            raise ValueError("a metered or profiled run always simulates; "
                             "it takes no cache")
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.trace = trace
        self.metrics = metrics
        self.profile = profile
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.simulated = 0
        self.served = 0
        self.failed = 0
        self.failures: List[PointOutcome] = []
        self.last_outcomes: List[PointOutcome] = []
        self._fingerprints: Dict[str, str] = {}

    # -- cache plumbing -------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    @property
    def total_points(self) -> int:
        return self.simulated + self.served

    def _fingerprint(self, sweep_name: str) -> str:
        fp = self._fingerprints.get(sweep_name)
        if fp is None:
            sweep = registry.get_sweep(sweep_name)
            fp = code_fingerprint(sweep.fingerprint_paths)
            self._fingerprints[sweep_name] = fp
        return fp

    # -- execution ------------------------------------------------------------

    def run_sweep(self, name: str,
                  points: Optional[Sequence[Any]] = None) -> Any:
        """Run ``points`` of sweep ``name`` (by default its paper-scale
        points) and return the reduced figure structure."""
        sweep = registry.get_sweep(name)
        points = list(sweep.points() if points is None else points)
        outcomes = self.run_points(make_specs(name, points))
        return sweep.reduce(points, [o.value for o in outcomes])

    def run_points(self, specs: Sequence[PointSpec]) -> List[PointOutcome]:
        """Execute ``specs``; outcomes are ordered like ``specs``."""
        outcomes: List[Optional[PointOutcome]] = [None] * len(specs)
        pending: List[Tuple[int, PointSpec, Optional[str]]] = []

        for pos, spec in enumerate(specs):
            key = None
            if self.cache is not None:
                key = cache_key(spec, self._fingerprint(spec.sweep),
                                trace=self.trace)
                entry = self.cache.get(key)
                if entry is not None:
                    outcomes[pos] = PointOutcome(
                        spec, entry["value"], True, 0.0, key,
                        entry.get("trace_digest"))
                    self.served += 1
                    continue
            pending.append((pos, spec, key))

        started = time.perf_counter()
        done = 0

        def finish(pos: int, spec: PointSpec, key: Optional[str],
                   value: Any, trace_digest, elapsed: float,
                   metrics=None, profile=None) -> None:
            nonlocal done
            outcomes[pos] = PointOutcome(spec, value, False, elapsed, key,
                                         trace_digest, metrics=metrics,
                                         profile=profile)
            self.simulated += 1
            done += 1
            if self.cache is not None and key is not None:
                entry = {"sweep": spec.sweep, "index": spec.index,
                         "seed": spec.seed,
                         "config": canonical_value(spec.config),
                         "value": value, "elapsed_s": elapsed}
                if trace_digest is not None:
                    entry["trace_digest"] = trace_digest
                self.cache.put(key, entry)
            if self.progress:
                wall = time.perf_counter() - started
                remaining = len(pending) - done
                rate = wall / done
                eta = rate * remaining / min(self.jobs, max(1, remaining))
                print(progress_line(spec.sweep, done, len(pending),
                                    len(specs) - len(pending), wall, eta),
                      file=self.stream, flush=True)

        def fail(pos: int, spec: PointSpec, key: Optional[str],
                 exc: BaseException) -> None:
            nonlocal done
            error = f"{type(exc).__name__}: {exc}"
            outcome = PointOutcome(spec, None, False, 0.0, key, None,
                                   error=error)
            outcomes[pos] = outcome
            self.failed += 1
            self.failures.append(outcome)
            done += 1
            print(f"warning: point {spec.sweep}[{spec.index}] failed after "
                  f"retry: {error}", file=self.stream, flush=True)

        def retry_then_fail(pos: int, spec: PointSpec,
                            key: Optional[str]) -> None:
            """One in-process retry with the point's original seed
            (deterministic: a genuine crash crashes again; a killed
            worker or transient host issue gets a second chance)."""
            try:
                result = run_point(spec, self.trace, self.metrics,
                                   self.profile)
            except Exception as exc:
                fail(pos, spec, key, exc)
            else:
                finish(pos, spec, key, *result)

        if pending and self.jobs == 1:
            for pos, spec, key in pending:
                try:
                    result = run_point(spec, self.trace, self.metrics,
                                       self.profile)
                except Exception:
                    retry_then_fail(pos, spec, key)
                else:
                    finish(pos, spec, key, *result)
        elif pending:
            # futures that raise — a crashing point, or every sibling of
            # a worker the OS killed (BrokenProcessPool) — are retried
            # in-process after the pool winds down
            to_retry: List[Tuple[int, PointSpec, Optional[str]]] = []
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    pool.submit(_pool_run,
                                (spec, self.trace, self.metrics,
                                 self.profile)): (pos, spec, key)
                    for pos, spec, key in pending}
                for future in as_completed(futures):
                    pos, spec, key = futures[future]
                    try:
                        result = future.result()
                    except Exception:
                        to_retry.append((pos, spec, key))
                    else:
                        finish(pos, spec, key, *result)
            for pos, spec, key in to_retry:
                retry_then_fail(pos, spec, key)

        self.last_outcomes = outcomes  # type: ignore[assignment]
        return outcomes  # type: ignore[return-value]
