"""The communication controller ("kernel" in earlier M3 papers).

The controller runs on a dedicated tile, knows every activity in the
system, and is the only component allowed to establish communication
channels: it owns the capability system and configures DTU endpoints
through the external interface (sections 2.1, 3.3).
"""

from repro.kernel.activity import Activity, ActState, AddressSpace
from repro.kernel.caps import (
    Capability,
    CapError,
    CapKind,
    CapTable,
    MGateObj,
    RGateObj,
    ServiceObj,
    SGateObj,
)
from repro.kernel.controller import Controller, SyscallError
from repro.kernel.memalloc import PhysAllocator, PhysRegion
from repro.kernel.protocol import Syscall

__all__ = [
    "CapKind",
    "Capability",
    "CapTable",
    "CapError",
    "RGateObj",
    "SGateObj",
    "MGateObj",
    "ServiceObj",
    "ActState",
    "Activity",
    "AddressSpace",
    "PhysAllocator",
    "PhysRegion",
    "Controller",
    "Syscall",
    "SyscallError",
]
