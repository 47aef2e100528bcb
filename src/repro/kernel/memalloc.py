"""Physical-memory management.

The controller owns all physical memory (sections 4.1, 4.3): it grants
per-tile PMP regions at boot and carves memory gates out of the
remaining DRAM.  A simple first-fit free-list allocator is sufficient —
and mirrors the controller's actual role of handing out contiguous
regions for memory endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class OutOfMemory(Exception):
    pass


@dataclass(frozen=True)
class PhysRegion:
    """A contiguous region on one memory tile."""

    mem_tile: int
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class PhysAllocator:
    """First-fit allocator over the DRAM of the platform's memory tiles."""

    def __init__(self, regions: List[PhysRegion]):
        # free list per memory tile, sorted by base
        self._free: List[PhysRegion] = sorted(regions, key=lambda r: (r.mem_tile, r.base))
        self._total = sum(r.size for r in regions)
        self._allocated = 0

    @property
    def free_bytes(self) -> int:
        return self._total - self._allocated

    def alloc(self, size: int, align: int = 4096) -> PhysRegion:
        """Allocate ``size`` bytes (aligned); first fit across tiles."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        size = (size + align - 1) // align * align
        for idx, region in enumerate(self._free):
            base = (region.base + align - 1) // align * align
            if base + size <= region.end:
                self._carve(idx, region, base, size)
                self._allocated += size
                return PhysRegion(region.mem_tile, base, size)
        raise OutOfMemory(f"no region of {size} bytes available "
                          f"({self.free_bytes} free, fragmented)")

    def _carve(self, idx: int, region: PhysRegion, base: int, size: int) -> None:
        pieces = []
        if base > region.base:
            pieces.append(PhysRegion(region.mem_tile, region.base, base - region.base))
        if base + size < region.end:
            pieces.append(PhysRegion(region.mem_tile, base + size,
                                     region.end - (base + size)))
        self._free[idx:idx + 1] = pieces

    def free(self, region: PhysRegion) -> None:
        """Return a region; coalesces with adjacent free space."""
        self._allocated -= region.size
        self._free.append(region)
        self._free.sort(key=lambda r: (r.mem_tile, r.base))
        merged: List[PhysRegion] = []
        for r in self._free:
            if (merged and merged[-1].mem_tile == r.mem_tile
                    and merged[-1].end == r.base):
                merged[-1] = PhysRegion(r.mem_tile, merged[-1].base,
                                        merged[-1].size + r.size)
            else:
                merged.append(r)
        self._free = merged
