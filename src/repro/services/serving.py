"""Overload protection for multi-tenant serving (figS).

The figS scenario points an open-loop load generator at a sharded KV
store behind a balancer.  Open-loop arrivals do not slow down when the
system saturates, so without protection the queues grow without bound,
every request blows through its SLO, and *goodput* (completions that
met their deadline) collapses even though raw throughput holds.  This
module is the protection stack that turns that collapse into a flat
line:

* :class:`TokenBucket` — per-tenant admission quotas, so one tenant's
  burst cannot starve the others (shed reason ``quota``);
* :class:`AdmissionQueue` — a bounded queue that sheds on overflow
  (``full``) and sheds *early* any request whose deadline cannot be
  met given the queue ahead of it (``deadline``) — work we already
  know is wasted is cheapest to drop at admission;
* :class:`ServiceEstimator` — the integer-EWMA service-time estimate
  that prices the deadline check;
* :class:`CircuitBreaker` — counts consecutive send failures per
  shard and, after a run of them, steers traffic to a sibling replica
  for a cooldown before re-probing;
* :class:`ServingStack` — one object bundling the above, built on a
  platform by the figS point runner and shared by the gateways and the
  balancer of one serving deployment.

Backpressure itself is not a class here: it is the composition of
``ActivityApi.send_nowait`` (credit exhaustion surfaces as ``False``
instead of a stall) with these bounded queues — the shard's unreturned
credits push into the balancer's per-shard queue, whose bound pushes
into the gateway's queue, whose bound sheds at the client edge.

Everything is integer-picosecond state machines with no entropy and no
wall-clock reads, so serving decisions are bit-deterministic, with or
without the cross-tile causality check.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

__all__ = ["AdmissionQueue", "CircuitBreaker", "ServiceEstimator",
           "ServingStack", "TokenBucket"]

QUEUE_SLOTS = 16                    # admission queue bound (per queue)
QUOTA_BURST = 8.0                   # token-bucket burst depth
BREAKER_FAILURES = 4                # consecutive failures to open
BREAKER_COOLDOWN_PS = 2_000_000_000  # 2 ms before re-probe


class TokenBucket:
    """Per-tenant admission quota: ``rate_rps`` with ``burst`` headroom.

    Rate 0 means unmetered.  Refill is computed lazily from the elapsed
    simulated time, so the bucket costs nothing while idle.
    """

    __slots__ = ("rate_pps", "burst", "tokens", "last_ps")

    def __init__(self, rate_rps: float, burst: float = QUOTA_BURST):
        self.rate_pps = rate_rps / 1e12
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ps = 0

    def allow(self, now_ps: int) -> bool:
        if self.rate_pps <= 0.0:
            return True
        elapsed = now_ps - self.last_ps
        if elapsed > 0:
            self.tokens = min(self.burst,
                              self.tokens + elapsed * self.rate_pps)
            self.last_ps = now_ps
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ServiceEstimator:
    """Integer EWMA (alpha = 1/8) of observed service times in ps."""

    __slots__ = ("estimate_ps",)

    def __init__(self, initial_ps: int = 500_000_000):
        self.estimate_ps = int(initial_ps)

    def observe(self, sample_ps: int) -> None:
        self.estimate_ps = (7 * self.estimate_ps + int(sample_ps)) // 8


class AdmissionQueue:
    """A bounded FIFO with deadline-aware shedding.

    Items must expose ``deadline_ps``.  ``offer`` refuses a request
    that cannot finish by its deadline given the estimated work queued
    ahead of it; ``scrub`` re-applies the same test to already-queued
    requests (an overload burst can invalidate yesterday's admission).
    """

    __slots__ = ("slots", "_q")

    def __init__(self, slots: int):
        self.slots = int(slots)
        self._q: Deque = deque()

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.slots

    def _misses_deadline(self, item, now_ps: int, est_ps: int,
                         depth: int) -> bool:
        return now_ps + (depth + 1) * est_ps > item.deadline_ps

    def offer(self, item, now_ps: int, est_ps: int) -> str:
        """Returns ``"admitted"``, ``"full"`` or ``"deadline"``."""
        if self.full:
            return "full"
        if self._misses_deadline(item, now_ps, est_ps, len(self._q)):
            return "deadline"
        self._q.append(item)
        return "admitted"

    def scrub(self, now_ps: int, est_ps: int) -> List:
        """Drop queued items that can no longer meet their deadline."""
        shed: List = []
        kept: Deque = deque()
        depth = 0
        for item in self._q:
            if self._misses_deadline(item, now_ps, est_ps, depth):
                shed.append(item)
            else:
                kept.append(item)
                depth += 1
        self._q = kept
        return shed

    def pop(self):
        return self._q.popleft() if self._q else None

    def push_front(self, item) -> None:
        """Return an item the sender could not flush (credits gone)."""
        self._q.appendleft(item)


class CircuitBreaker:
    """Per-target breaker over consecutive send failures.

    A *target* is a small integer (figS: the shard index).
    ``failures`` consecutive failures open the breaker for
    ``cooldown_ps``; expiry closes it again (the next failure run
    re-opens it — a cheap half-open probe).
    """

    def __init__(self, failures: int, cooldown_ps: int, stats=None):
        self.failures = int(failures)
        self.cooldown_ps = int(cooldown_ps)
        self._fails: Dict[int, int] = {}
        self._open_until: Dict[int, int] = {}
        self._ctr_open = stats.counter("serving/breaker_opens") \
            if stats else None

    def record_success(self, target: int) -> None:
        self._fails[target] = 0

    def record_failure(self, target: int, now_ps: int) -> None:
        n = self._fails.get(target, 0) + 1
        self._fails[target] = n
        if n >= self.failures and target not in self._open_until:
            self._open_until[target] = now_ps + self.cooldown_ps
            if self._ctr_open is not None:
                self._ctr_open.add()

    def healthy(self, target: int, now_ps: int) -> bool:
        until = self._open_until.get(target)
        if until is not None:
            if now_ps < until:
                return False
            del self._open_until[target]
            self._fails[target] = 0
        return True


class ServingStack:
    """One deployment's protection state, counted in ``plat.stats``.

    Shared (plain Python state, like the experiments' ``env`` dicts) by
    the gateways and balancer of one serving scenario; all methods are
    plain calls — the *costs* of serving decisions are charged by the
    activity programs that invoke them.
    """

    def __init__(self, plat):
        stats = plat.stats
        self.estimator = ServiceEstimator()
        self.breaker = CircuitBreaker(BREAKER_FAILURES, BREAKER_COOLDOWN_PS,
                                      stats=stats)
        self._buckets: Dict[str, TokenBucket] = {}
        self._ctr_admitted = stats.counter("serving/admitted")
        self._ctr_shed = {reason: stats.counter(f"serving/shed_{reason}")
                          for reason in ("quota", "deadline", "full")}
        self._ctr_backpressure = stats.counter("serving/backpressure")
        self._ctr_steered = stats.counter("serving/steered")

    # -- per-tenant quotas ----------------------------------------------------

    def set_quota(self, tenant: str, rate_rps: float) -> None:
        self._buckets[tenant] = TokenBucket(rate_rps)

    def admit_tenant(self, tenant: str, now_ps: int) -> bool:
        bucket = self._buckets.get(tenant)
        return True if bucket is None else bucket.allow(now_ps)

    # -- queue factory + accounting ------------------------------------------

    def make_queue(self) -> AdmissionQueue:
        return AdmissionQueue(QUEUE_SLOTS)

    def count_admitted(self) -> None:
        self._ctr_admitted.add()

    def count_shed(self, reason: str) -> None:
        self._ctr_shed[reason].add()

    def count_backpressure(self) -> None:
        self._ctr_backpressure.add()

    def count_steered(self) -> None:
        self._ctr_steered.add()
