"""``repro.api.env_overrides()``: the documented environment knobs.

The environment is the outermost configuration layer: it can *default*
what a :class:`~repro.api.SystemConfig` leaves unset, but never
overrides an explicit config value (installed-defaults-win, same as
tracers/metrics).  The full precedence is::

    explicit SystemConfig field  >  environment  >  built-in default

All raw reads live in :mod:`repro.sim.envcfg`; this module resolves
them into one frozen snapshot so callers (and tests) can see exactly
what the environment contributes to a build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import envcfg

__all__ = ["EnvOverrides", "env_overrides"]


@dataclass(frozen=True)
class EnvOverrides:
    """Raw environment values, '' where unset (see ``envcfg.ENV_VARS``)."""

    scheduler: str = ""       # REPRO_SCHEDULER (event queue)
    shards: str = ""          # REPRO_SHARDS
    shard_strict: str = ""    # REPRO_SHARD_STRICT
    noc_batch: str = ""       # REPRO_NOC_BATCH
    sched: str = ""           # REPRO_SCHED (TileMux policy)
    bench_handicap_s: str = ""  # REPRO_BENCH_HANDICAP_S


def env_overrides() -> EnvOverrides:
    """Resolve the current environment into a frozen snapshot."""
    snap = envcfg.snapshot()
    return EnvOverrides(
        scheduler=snap["REPRO_SCHEDULER"],
        shards=snap["REPRO_SHARDS"],
        shard_strict=snap["REPRO_SHARD_STRICT"],
        noc_batch=snap["REPRO_NOC_BATCH"],
        sched=snap["REPRO_SCHED"],
        bench_handicap_s=snap["REPRO_BENCH_HANDICAP_S"],
    )
