"""Capability-based access control (section 3.3).

The controller decides which communication channels exist via
capabilities [Miller 2006].  Capabilities form a derivation tree:
delegating or deriving creates children, and revocation removes an
entire subtree, deactivating any DTU endpoints that were activated
from revoked capabilities.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.dtu.endpoints import Perm


class CapError(Exception):
    """Illegal capability operation (bad selector, kind mismatch, ...)."""


class CapKind(enum.Enum):
    ACTIVITY = "activity"
    RGATE = "rgate"      # receive gate: the right to receive on a channel
    SGATE = "sgate"      # send gate: the right to send to one rgate
    MGATE = "mgate"      # memory gate: a window into physical memory


# ---------------------------------------------------------------------------
# Kernel objects referenced by capabilities
# ---------------------------------------------------------------------------

_obj_ids = itertools.count(1)


@dataclass
class RGateObj:
    """A receive gate; becomes a receive endpoint once activated."""

    slots: int
    slot_size: int
    oid: int = field(default_factory=lambda: next(_obj_ids))
    # filled at activation time
    tile: Optional[int] = None
    ep: Optional[int] = None
    owner_act: Optional[int] = None

    @property
    def activated(self) -> bool:
        return self.ep is not None


@dataclass
class SGateObj:
    """A send gate targeting one receive gate."""

    rgate: RGateObj
    label: int
    credits: int
    oid: int = field(default_factory=lambda: next(_obj_ids))
    # set at activation
    tile: Optional[int] = None
    ep: Optional[int] = None


@dataclass
class MGateObj:
    """A window into physical memory on a memory tile."""

    mem_tile: int
    base: int
    size: int
    perm: Perm
    oid: int = field(default_factory=lambda: next(_obj_ids))
    tile: Optional[int] = None
    ep: Optional[int] = None

    def derive(self, offset: int, size: int, perm: Perm) -> "MGateObj":
        if offset < 0 or offset + size > self.size:
            raise CapError(f"derive [{offset}, {offset + size}) exceeds "
                           f"mgate of size {self.size}")
        if (perm & self.perm) != perm:
            raise CapError("derive cannot widen permissions")
        return MGateObj(mem_tile=self.mem_tile, base=self.base + offset,
                        size=size, perm=perm)


@dataclass
class ServiceObj:
    """A registered service (file system, pager, net, ...)."""

    name: str
    rgate: RGateObj
    oid: int = field(default_factory=lambda: next(_obj_ids))
    meta: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Capabilities and tables
# ---------------------------------------------------------------------------

_cap_ids = itertools.count(1)


@dataclass
class Capability:
    """A reference to a kernel object held by one activity."""

    kind: CapKind
    owner: int                      # act id of the holding activity
    sel: int                        # selector within the owner's table
    obj: Any
    parent: Optional["Capability"] = None
    children: List["Capability"] = field(default_factory=list)
    revoked: bool = False
    cid: int = field(default_factory=lambda: next(_cap_ids))

    def subtree(self) -> Iterator["Capability"]:
        """This capability and all capabilities derived from it."""
        yield self
        for child in self.children:
            yield from child.subtree()


class CapTable:
    """Per-activity selector space."""

    def __init__(self, act_id: int):
        self.act_id = act_id
        self._caps: Dict[int, Capability] = {}
        self._next_sel = 0

    def alloc_sel(self) -> int:
        sel = self._next_sel
        self._next_sel += 1
        return sel

    def insert(self, kind: CapKind, obj: Any,
               parent: Optional[Capability] = None,
               sel: Optional[int] = None) -> Capability:
        if sel is None:
            sel = self.alloc_sel()
        elif sel in self._caps:
            raise CapError(f"selector {sel} already in use by act {self.act_id}")
        else:
            self._next_sel = max(self._next_sel, sel + 1)
        cap = Capability(kind=kind, owner=self.act_id, sel=sel, obj=obj,
                         parent=parent)
        if parent is not None:
            parent.children.append(cap)
        self._caps[sel] = cap
        return cap

    def get(self, sel: int, kind: Optional[CapKind] = None) -> Capability:
        cap = self._caps.get(sel)
        if cap is None or cap.revoked:
            raise CapError(f"act {self.act_id}: no capability at selector {sel}")
        if kind is not None and cap.kind is not kind:
            raise CapError(f"act {self.act_id}: capability {sel} is "
                           f"{cap.kind.value}, expected {kind.value}")
        return cap

    def __contains__(self, sel: int) -> bool:
        cap = self._caps.get(sel)
        return cap is not None and not cap.revoked

    def __len__(self) -> int:
        return sum(1 for c in self._caps.values() if not c.revoked)

    def remove(self, cap: Capability) -> None:
        self._caps.pop(cap.sel, None)


def delegate(cap: Capability, target: CapTable,
             sel: Optional[int] = None) -> Capability:
    """Hand a capability to another activity (child in the tree)."""
    if cap.revoked:
        raise CapError("cannot delegate a revoked capability")
    return target.insert(cap.kind, cap.obj, parent=cap, sel=sel)


def revoke(cap: Capability, tables: Dict[int, CapTable],
           on_revoke: Optional[Callable[[Capability], None]] = None) -> int:
    """Revoke ``cap`` and its entire derivation subtree.

    ``on_revoke`` is the controller's hook that deactivates endpoints
    configured from the revoked capability.  Returns the number of
    capabilities removed.
    """
    count = 0
    for victim in list(cap.subtree()):
        if victim.revoked:
            continue
        victim.revoked = True
        table = tables.get(victim.owner)
        if table is not None:
            table.remove(victim)
        if on_revoke is not None:
            on_revoke(victim)
        count += 1
    if cap.parent is not None:
        cap.parent.children.remove(cap)
    return count
