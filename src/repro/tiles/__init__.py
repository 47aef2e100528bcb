"""Tiles: cores with clocks and cost models, and tile containers.

A tile couples a DTU/vDTU with either a core (plus the software that
runs on it), a memory interface, an accelerator, or a NIC.  Cores are
not instruction-level models; they are *cost models*: software charges
calibrated cycle counts for traps, scheduling, marshalling and compute,
which the clock converts into the platform's picosecond time base.
"""

from repro.tiles.costs import (
    BOOM,
    CoreClock,
    CoreCosts,
    ROCKET,
    X86_GEM5,
)
from repro.tiles.tile import Tile, TileKind

__all__ = [
    "CoreClock",
    "CoreCosts",
    "ROCKET",
    "BOOM",
    "X86_GEM5",
    "Tile",
    "TileKind",
]
