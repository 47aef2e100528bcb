"""Activities and address spaces.

An *activity* is the M3 equivalent of a process (section 2.1): code on
a general-purpose tile (or a context on an accelerator).  The
controller knows all activities; TileMux schedules the ones resident on
its tile.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.dtu.endpoints import Perm

PAGE_SIZE = 4096

_act_ids = itertools.count(1)  # 0 is ACT_TILEMUX


class ActState(enum.Enum):
    INIT = "init"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"          # waiting for a message (TMCall block)
    BLOCKED_PF = "blocked_pf"    # waiting for the pager to resolve a fault
    EXITED = "exited"


class PageFault(Exception):
    """Raised when a virtual page is neither mapped nor pager-backed."""

    def __init__(self, act: int, virt: int, perm: Perm):
        super().__init__(f"act {act}: unhandled fault at {virt:#x} ({perm})")
        self.virt = virt
        self.perm = perm


@dataclass
class LazyRegion:
    """A demand-paged region, populated by the pager on first touch."""

    base: int
    size: int
    perm: Perm

    def contains(self, virt: int) -> bool:
        return self.base <= virt < self.base + self.size


class AddressSpace:
    """A per-activity page table plus a trivial virtual allocator.

    Physical pages live inside PMP windows granted by the controller,
    so the physical addresses stored here are already offset into the
    global physical layout (PMP endpoint index in the upper bits).
    """

    HEAP_BASE = 0x100000

    def __init__(self, act_id: int):
        self.act_id = act_id
        self._pages: Dict[int, Tuple[int, Perm]] = {}
        self._lazy: list = []
        self._brk = self.HEAP_BASE
        self._phys_alloc: Optional[Callable[[], int]] = None

    # -- mapping ---------------------------------------------------------------

    def map_page(self, vpage: int, ppage: int, perm: Perm) -> None:
        self._pages[vpage] = (ppage, perm)

    def unmap_page(self, vpage: int) -> bool:
        return self._pages.pop(vpage, None) is not None

    def lookup(self, virt: int, perm: Perm) -> Optional[int]:
        """Page-table walk; returns the physical page or None."""
        entry = self._pages.get(virt // PAGE_SIZE)
        if entry is None:
            return None
        ppage, p = entry
        if (perm & p) != perm:
            return None
        return ppage

    def add_lazy_region(self, base: int, size: int, perm: Perm) -> LazyRegion:
        region = LazyRegion(base, size, perm)
        self._lazy.append(region)
        return region

    def lazy_region_of(self, virt: int) -> Optional[LazyRegion]:
        for region in self._lazy:
            if region.contains(virt):
                return region
        return None

    @property
    def mapped_pages(self) -> int:
        return len(self._pages)

    # -- virtual allocation --------------------------------------------------------

    def alloc_virt(self, size: int) -> int:
        """Bump-allocate virtual space (page aligned)."""
        size = (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        virt = self._brk
        self._brk += size
        return virt


@dataclass
class Activity:
    """One activity as the controller and TileMux see it."""

    name: str
    tile_id: int
    program: Optional[Callable] = None   # Program(api) -> Generator
    act_id: int = field(default_factory=lambda: next(_act_ids))
    state: ActState = ActState.INIT
    addrspace: AddressSpace = None
    # TileMux's in-memory unread-message counter while not current (3.7)
    msgs: int = 0
    # endpoints the controller allocated for this activity on its tile
    sysc_sep: Optional[int] = None       # send EP towards the controller
    sysc_rep: Optional[int] = None       # receive EP for syscall replies
    # scheduling state
    slice_end: int = 0
    # advisory EDF deadline set by the workload layer (repro.mux.sched)
    deadline_ps: Optional[int] = None
    # simulation plumbing
    gen: Optional[Generator] = None      # bound program generator
    api: Any = None                      # ActivityApi bound at CREATE_ACT
                                         # (rebound on live migration)
    exit_event: Any = None               # sim Event, fires with exit code
    exit_code: Optional[int] = None
    pager_session: Any = None            # session with the pager service
    # accounting (user/system split for Figure 10)
    user_ps: int = 0
    sys_ps: int = 0
    # value the mux injects into gen on the next dispatch (set on preempt)
    _resume_value: Any = None
    # TileMux's per-activity flags (repro.mux.tilemux)
    wd_slices: int = 0                   # full slices run without a TMCall
    _migrated: bool = False              # MIGRATE_OUT detached it mid-dispatch
    _sleeping: bool = False              # a sleep's wake timer is armed
    _dev_kick: bool = False              # a device IRQ raced its block trap

    def __post_init__(self) -> None:
        if self.addrspace is None:
            self.addrspace = AddressSpace(self.act_id)

    @property
    def runnable(self) -> bool:
        return self.state in (ActState.READY, ActState.RUNNING)

    def __repr__(self) -> str:
        return f"Activity({self.act_id}:{self.name}@{self.tile_id} {self.state.value})"
