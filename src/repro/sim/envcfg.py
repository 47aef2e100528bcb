"""The single home for ``REPRO_*`` environment-variable reads.

Every knob the simulator accepts from the environment is declared and
read here.  The REP003 ``env-config`` lint (``repro.analysis.
layering``) forbids any other ``repro.*`` module from reading a
``REPRO_*`` variable directly — scattered ``os.environ`` reads are how
configuration precedence rules rot.

On/off switches are parsed here too (:func:`flag`), strictly: a value
like ``off`` or ``false`` raises instead of being read as one state or
the other.  Knobs with a richer syntax take the raw string
(:func:`raw`) and parse it at their one consumer.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = ["ENV_VARS", "flag", "raw"]

# name -> one-line documentation; the only REPRO_* variables that exist
ENV_VARS: Dict[str, str] = {
    "REPRO_SHARDS": "cross-tile causality check (1; empty/0 = off)",
    "REPRO_NOC_BATCH": "batch NoC hop charging (1, default; 0 = per-hop)",
    "REPRO_BENCH_HANDICAP_S": "synthetic bench regression: name=secs[,...]",
}


def raw(name: str, default: str = "") -> str:
    """The raw string value of a *declared* REPRO_* variable."""
    if name not in ENV_VARS:
        raise KeyError(f"{name} is not a declared repro env var; "
                       f"add it to repro.sim.envcfg.ENV_VARS first")
    return os.environ.get(name, default)


def flag(name: str, default: bool = False) -> bool:
    """An on/off switch: ``"1"`` is on, ``"0"`` off, unset or empty
    gives ``default``; any other value raises ``ValueError``."""
    value = raw(name)
    if value == "":
        return default
    if value not in ("0", "1"):
        raise ValueError(f"{name}={value!r}: {name} is an on/off switch; "
                         f"set it to 1 or 0, or leave it empty")
    return value == "1"
