"""Simulator self-profiling: where does the *wall clock* go?

Unlike :mod:`repro.obs.metrics` (simulated time), the
:class:`SelfProfiler` measures the host: per-callback wall-clock
attributed to the simulated subsystem that ran it, plus total events
processed per second.  A perf regression in, say, the DTU receive
loop shows up as that bucket's share growing run over run.

Attribution is by the name prefix of the
:class:`~repro.sim.engine.Process` or :class:`~repro.sim.engine.Timer`
that owns the callback (``tilemux3`` → ``tilemux``, ``dtu2-rx`` →
``dtu``, ``controller`` → ``controller``, …); unnamed callbacks land in
``other``.  The engine
only pays the ``perf_counter`` pair when a profiler is installed —
with ``sim.profiler is None`` the hot loop is unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SelfProfiler", "capture_profile"]

# (prefix, bucket) — first match wins; checked against the owning
# Process's or Timer's name
_BUCKET_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("tilemux", "tilemux"),
    ("m3xmux", "m3xmux"),
    ("dtu", "dtu"),
    ("controller", "controller"),
    ("sleep", "workload"),
    ("linux", "linux"),
    ("pkt", "noc"),
)


class SelfProfiler:
    """Wall-clock per simulated subsystem + events/sec."""

    def __init__(self):
        # bucket -> [wall_seconds, callback_count]
        self.buckets: Dict[str, List[float]] = {}
        self.events = 0
        self._started = time.perf_counter()
        self._wall_s: Optional[float] = None
        self._name_cache: Dict[str, str] = {}

    # -- engine hooks ----------------------------------------------------------

    def bucket_of(self, name: str) -> str:
        bucket = self._name_cache.get(name)
        if bucket is None:
            bucket = "workload"
            for prefix, b in _BUCKET_PREFIXES:
                if name.startswith(prefix):
                    bucket = b
                    break
            self._name_cache[name] = bucket
        return bucket

    def record(self, owner, dt: float) -> None:
        """Attribute ``dt`` wall-seconds to ``owner`` (a Process, a
        Timer, or ``None`` for bare callbacks)."""
        name = getattr(owner, "name", None)
        bucket = self.bucket_of(name) if name else "other"
        entry = self.buckets.get(bucket)
        if entry is None:
            entry = self.buckets[bucket] = [0.0, 0]
        entry[0] += dt
        entry[1] += 1

    def on_step(self) -> None:
        self.events += 1

    # -- reporting -------------------------------------------------------------

    def stop(self) -> "SelfProfiler":
        if self._wall_s is None:
            self._wall_s = time.perf_counter() - self._started
        return self

    @property
    def wall_s(self) -> float:
        return (self._wall_s if self._wall_s is not None
                else time.perf_counter() - self._started)

    @property
    def events_per_sec(self) -> float:
        wall = self.wall_s
        return self.events / wall if wall > 0 else 0.0

    def rows(self) -> List[Tuple[str, float, int, float]]:
        """(bucket, wall_s, callbacks, share) sorted by wall_s desc.

        Equal wall times tie-break on the subsystem name so the table
        is stable-sorted: byte-identical across runs with the same
        measurements, usable in golden-style assertions.
        """
        total = sum(w for w, _ in self.buckets.values()) or 1.0
        return sorted(((b, w, int(n), w / total)
                       for b, (w, n) in self.buckets.items()),
                      key=lambda r: (-r[1], r[0]))

    def table(self) -> str:
        lines = [f"{'subsystem':<12} {'wall':>9} {'callbacks':>10} {'share':>7}"]
        lines.append("-" * 41)
        for bucket, wall, n, share in self.rows():
            lines.append(f"{bucket:<12} {wall * 1e3:>7.1f}ms {n:>10} "
                         f"{share * 100:>6.1f}%")
        lines.append("-" * 41)
        lines.append(f"{self.events} events in {self.wall_s:.3f}s wall "
                     f"({self.events_per_sec:,.0f} events/s)")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "buckets": {b: {"wall_s": w, "callbacks": int(n)}
                        for b, (w, n) in sorted(self.buckets.items())},
        }

    def merge(self, other_dict: Dict[str, Any]) -> None:
        """Fold another profiler's :meth:`as_dict` into this one
        (used by the runner to aggregate across points)."""
        if not other_dict:
            return
        self.stop()
        self._wall_s = (self._wall_s or 0.0) + other_dict.get("wall_s", 0.0)
        self.events += other_dict.get("events", 0)
        for bucket, entry in other_dict.get("buckets", {}).items():
            mine = self.buckets.get(bucket)
            if mine is None:
                mine = self.buckets[bucket] = [0.0, 0]
            mine[0] += entry.get("wall_s", 0.0)
            mine[1] += entry.get("callbacks", 0)


@contextmanager
def capture_profile(profiler: Optional[SelfProfiler] = None):
    """Profile every simulator built inside the block.

    >>> with capture_profile() as prof:
    ...     Runner().run_sweep("fig6", fig6_points(iterations=10, warmup=2))
    >>> print(prof.table())
    """
    from repro.sim import engine

    profiler = profiler if profiler is not None else SelfProfiler()
    engine.set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        engine.set_default_profiler(None)
        profiler.stop()
