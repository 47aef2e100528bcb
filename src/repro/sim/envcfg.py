"""The single home for ``REPRO_*`` environment-variable reads.

Every knob the simulator accepts from the environment is declared and
read here.  The REP003 ``env-config`` lint (``repro.analysis.
layering``) forbids any other ``repro.*`` module from reading a
``REPRO_*`` variable directly — scattered ``os.environ`` reads are how
configuration precedence rules rot.

Parsing and validation intentionally stay with the consumers
(:mod:`repro.sim.parallel` knows what a legal shard count is); this
module only owns *which* variables exist and the raw string access.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = ["ENV_VARS", "raw"]

# name -> one-line documentation; the only REPRO_* variables that exist
ENV_VARS: Dict[str, str] = {
    "REPRO_SHARDS": "tile shards for the cross-shard causality check "
                    "(empty/0 = off)",
    "REPRO_SHARD_STRICT": "raise on cross-shard causality violations (1|0)",
    "REPRO_NOC_BATCH": "batch NoC hop charging (1, default; 0 = per-hop)",
    "REPRO_BENCH_HANDICAP_S": "synthetic bench regression: name=secs[,...]",
}


def raw(name: str, default: str = "") -> str:
    """The raw string value of a *declared* REPRO_* variable."""
    if name not in ENV_VARS:
        raise KeyError(f"{name} is not a declared repro env var; "
                       f"add it to repro.sim.envcfg.ENV_VARS first")
    return os.environ.get(name, default)
