"""Open-loop multi-tenant serving workload for figS.

An *open-loop* load generator models millions of independent clients:
arrivals follow a Poisson process whose rate does not react to server
latency (clients do not wait for each other), which is what makes
overload dangerous — offered load keeps arriving at full rate while
the system drowns.  Each gateway precomputes its arrival schedule up
front from one seeded RNG, so a run is a pure function of
``(seed, gateway, rate, mix)`` regardless of interleaving,
``PYTHONHASHSEED``, or the cross-tile causality check.

Tenants are traffic classes (weight, SLO, read mix, key skew), not
individual clients: a client id is drawn from a large id space
(``clients`` defaults to two million) and only rides along in the
request for accounting, the way a real frontend would tag requests.
Keys come from :class:`~repro.workloads.zipfian.ZipfianGenerator` with
per-tenant skew; the shard for a key is ``key_idx % n_shards``
(explicit index, never ``hash()`` — that would drag
``PYTHONHASHSEED`` into placement).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.workloads.zipfian import ZipfianGenerator

__all__ = ["DEFAULT_TENANTS", "Request", "TenantClass", "open_loop_arrivals"]

#: Default id-space size: "millions of simulated clients".
DEFAULT_CLIENTS = 2_000_000


@dataclass(frozen=True)
class TenantClass:
    """One traffic class sharing the deployment."""

    name: str
    weight: float            # share of offered load
    slo_us: float            # end-to-end deadline per request
    read_fraction: float = 0.8
    theta: float = 0.99      # Zipfian skew of this tenant's keys


#: Three classes in the spirit of the §6.5 voice study: a latency-
#: sensitive majority, a looser bulk class, and a small strict class.
DEFAULT_TENANTS: Tuple[TenantClass, ...] = (
    TenantClass("gold", weight=0.2, slo_us=10_000.0, read_fraction=0.9,
                theta=0.9),
    TenantClass("silver", weight=0.5, slo_us=25_000.0, read_fraction=0.8),
    TenantClass("bulk", weight=0.3, slo_us=60_000.0, read_fraction=0.5,
                theta=0.99),
)


@dataclass(frozen=True)
class Request:
    """One client request, fully determined at generation time."""

    uid: int                 # unique per run (gateway-major)
    tenant: str
    client_id: int
    key_idx: int             # shard = key_idx % n_shards
    op: str                  # "get" | "put"
    arrival_ps: int
    deadline_ps: int
    gateway: int


def open_loop_arrivals(gateway: int, n: int, offered_rps: float,
                       tenants: Sequence[TenantClass] = DEFAULT_TENANTS,
                       keyspace: int = 4096,
                       clients: int = DEFAULT_CLIENTS,
                       seed: int = 1,
                       start_ps: int = 0,
                       skew: float = 0.0,
                       skew_mod: int = 1) -> List[Request]:
    """``n`` Poisson arrivals at ``offered_rps`` for one gateway.

    Inter-arrival gaps are exponential, rounded to a minimum of one
    integer picosecond; tenants are drawn by weight, keys from one
    Zipfian stream per tenant.  ``uid`` embeds the gateway id so uids
    are globally unique across gateways.

    ``skew`` steers that fraction of requests onto the shard-0 residue
    class (``key_idx % skew_mod == 0``, with ``skew_mod`` = the
    deployment's shard count) — the figS hotspot knob.  Zero skew draws
    nothing extra from the RNG, so default schedules are byte-identical
    to pre-skew ones.
    """
    if offered_rps <= 0:
        raise ValueError("offered_rps must be positive")
    rng = random.Random(f"figS:{seed}:{gateway}")
    keys = {t.name: ZipfianGenerator(
                keyspace, theta=t.theta,
                seed=rng.randrange(2**31))
            for t in tenants}
    names = [t.name for t in tenants]
    weights = [t.weight for t in tenants]
    by_name = {t.name: t for t in tenants}
    mean_gap_ps = 1e12 / offered_rps
    now = int(start_ps)
    out: List[Request] = []
    for i in range(n):
        now += max(1, round(rng.expovariate(1.0) * mean_gap_ps))
        tname = rng.choices(names, weights=weights)[0]
        t = by_name[tname]
        op = "get" if rng.random() < t.read_fraction else "put"
        key_idx = keys[tname].next()
        if skew > 0.0 and rng.random() < skew:
            key_idx -= key_idx % skew_mod   # hotspot: primary shard 0
        out.append(Request(
            uid=gateway * 10_000_000 + i,
            tenant=tname,
            client_id=rng.randrange(clients),
            key_idx=key_idx,
            op=op,
            arrival_ps=now,
            deadline_ps=now + int(t.slo_us * 1e6),
            gateway=gateway,
        ))
    return out
