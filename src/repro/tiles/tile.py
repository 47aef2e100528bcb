"""Tile containers.

A :class:`Tile` bundles the identity, kind, core costs and DTU of one
tile.
The software that runs on a processing tile (TileMux + activities, the
controller, or the Linux kernel model) is attached by the platform
builder in :mod:`repro.core.platform`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.tiles.costs import CoreCosts


class TileKind(enum.Enum):
    PROCESSING = "processing"    # general-purpose core + vDTU + TileMux
    CONTROLLER = "controller"    # the communication controller (plain DTU)
    MEMORY = "memory"            # DRAM interface (plain DTU)
    ACCELERATOR = "accelerator"  # fixed-function logic (plain DTU)
    NIC = "nic"                  # processing tile with an attached NIC


@dataclass
class Tile:
    """One tile of the platform."""

    tile_id: int
    kind: TileKind
    costs: Optional[CoreCosts] = None   # None for memory tiles
    dtu: Any = None                     # Dtu / VDtu / MemoryDtu
    mux: Any = None                     # TileMux instance (processing tiles)
    device: Any = None                  # NIC device, accelerator logic, ...

    def __repr__(self) -> str:
        core = self.costs.name if self.costs else "-"
        return f"Tile({self.tile_id}, {self.kind.value}, {core})"
