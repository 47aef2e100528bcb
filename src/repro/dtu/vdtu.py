"""The virtualized DTU (vDTU) of M3v (sections 3.4 - 3.8).

Additions over the base DTU:

* every endpoint is tagged with the owning activity; using a foreign
  endpoint yields the *same* ``UNKNOWN_EP`` error as an invalid one, so
  activities cannot probe each other's endpoints (section 3.5);
* the ``CUR_ACT`` register holds the running activity's id *and* its
  unread-message count (section 3.7);
* a software-loaded TLB translates the virtual addresses activities
  pass to commands; transfers are restricted to a single page and a
  miss fails the command instead of injecting an interrupt (3.6);
* messages for *any* resident activity are always deposited (fast
  path); if the recipient is not running, a *core request* is queued
  and an interrupt raised towards TileMux; queue overruns stall the
  NoC ejection port — packet-based flow control (3.8);
* a privileged interface, mapped only for TileMux: atomic activity
  switch, TLB maintenance, core-request handling (3.4).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, List, Optional

from repro.dtu.dtu import Dtu
from repro.dtu.endpoints import EndpointKind, MemoryEndpoint, Perm, ReceiveEndpoint
from repro.dtu.errors import DtuError, DtuFault
from repro.dtu.message import Message
from repro.dtu.tlb import Tlb

# Activity-id conventions (16-bit ids in hardware).
ACT_TILEMUX = 0        # TileMux's own activity id (section 4.2)
ACT_INVALID = 0xFFFF   # no activity / untagged endpoint

# read on every delivery; bound once, as repro.dtu.dtu binds its enum
# members (an Enum class-attribute read is slow on CPython 3.10/3.11)
_RECEIVE = EndpointKind.RECEIVE


class CoreRequest:
    """A 'message arrived for a non-running activity' notification."""

    __slots__ = ("act", "ep_id")

    def __init__(self, act: int, ep_id: int) -> None:
        self.act = act
        self.ep_id = ep_id


class VDtu(Dtu):
    """The virtualized DTU."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cur_act: int = ACT_TILEMUX
        self.cur_msgs: int = 0
        # events woken when a message for the *current* activity arrives
        # (the software poll loop of section 3.7 observes this register)
        self.cur_msg_waiters: List = []
        self.tlb = Tlb(self.params.tlb_entries, self.params.page_size)
        self._core_reqs: Deque[CoreRequest] = deque()
        self._overrun_waiters: List = []
        # raised towards the core whenever the core-request queue is
        # non-empty; wired up by the tile's executor
        self.irq_handler: Optional[Callable[[], None]] = None
        self._ctr_core_reqs = self.stats.counter("vdtu/core_reqs")
        self._ctr_act_switches = self.stats.counter("vdtu/act_switches")

    # -- endpoint protection (3.5) ---------------------------------------------

    def _usable_ep(self, ep_id: int, kind: EndpointKind):
        # the base DTU's checks, inline (every command runs them)
        if not 0 <= ep_id < len(self.eps):
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep id {ep_id} out of range")
        ep = self.eps[ep_id]
        if ep.kind is not kind:
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep {ep_id} is {ep.kind.value}")
        if ep.act != self.cur_act:
            # deliberately indistinguishable from an invalid endpoint
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep {ep_id}")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "ep_use", tile=self.tile, ep=ep_id,
                        owner=ep.act, cur_act=self.cur_act)
        return ep

    # -- address translation (3.6) ----------------------------------------------

    def _translate(self, virt: int, size: int, perm: Perm) -> int:
        if virt == 0:
            # Convention of the simulation: address 0 marks transfers whose
            # payload the caller models as register-resident scratch (no
            # memory operand).  Software layers that want the TLB exercised
            # pass real virtual buffer addresses.
            return 0
        page = self.params.page_size
        if size > 0 and virt // page != (virt + size - 1) // page:
            raise DtuFault(DtuError.PAGE_BOUNDARY,
                           f"[{virt:#x}, {virt + size:#x}) crosses a page")
        phys = self.tlb.lookup(self.cur_act, virt, perm)
        if phys is None:
            raise DtuFault(DtuError.TRANSLATION_FAULT, f"virt {virt:#x}")
        return phys

    # -- message delivery & core requests (3.7, 3.8) -----------------------------

    def _deliverable_ep(self, ep_id: int) -> Optional[ReceiveEndpoint]:
        """Any *valid* receive EP accepts, regardless of who is running.

        This is the crucial difference from M3x: the vDTU knows the
        endpoints of all resident activities, so the fast path always
        works (section 3.8).
        """
        if not 0 <= ep_id < len(self.eps):
            return None
        ep = self.eps[ep_id]
        if ep.kind is not _RECEIVE or ep.act == ACT_INVALID:
            return None
        return ep

    def _on_deposit_blocking(self, ep_id: int, ep: ReceiveEndpoint,
                             msg: Message) -> Generator:
        tracer = self.sim.tracer
        if ep.act == self.cur_act:
            self.cur_msgs += 1
            if tracer is not None:
                tracer.emit(self.sim, "cur_inc", tile=self.tile, act=ep.act,
                            cur=self.cur_msgs)
            waiters, self.cur_msg_waiters = self.cur_msg_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
            return
        # recipient not running: queue a core request (stall on overrun —
        # the NoC's packet-based flow control takes over upstream)
        while len(self._core_reqs) >= self.params.core_req_queue_depth:
            if tracer is not None:
                tracer.emit(self.sim, "core_req_stall", tile=self.tile,
                            qlen=len(self._core_reqs))
            waiter = self.sim.event()
            self._overrun_waiters.append(waiter)
            self.stats.counter("vdtu/core_req_overruns").add()
            yield waiter
        self._core_reqs.append(CoreRequest(ep.act, ep_id))
        if tracer is not None:
            tracer.emit(self.sim, "core_req_enq", tile=self.tile, act=ep.act,
                        ep=ep_id, qlen=len(self._core_reqs),
                        cap=self.params.core_req_queue_depth)
        self._ctr_core_reqs.value += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.sample(self.sim, f"tile{self.tile}/vdtu/core_req_q",
                           len(self._core_reqs))
        if self.irq_handler is not None:
            self.irq_handler()

    def _on_fetch(self, ep: ReceiveEndpoint) -> None:
        if ep.act == self.cur_act and self.cur_msgs > 0:
            self.cur_msgs -= 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "cur_dec", tile=self.tile,
                            act=self.cur_act, cur=self.cur_msgs)

    # -- privileged interface (TileMux only) --------------------------------------

    def priv_xchg_act(self, new_act: int, new_msgs: int) -> Generator:
        """Atomically switch ``CUR_ACT``; returns the old (act, msgs).

        TileMux maintains the unread-message counters of non-running
        activities in memory and supplies the new activity's count.
        The atomicity guarantees no message notification can be lost
        between the check and the switch (section 3.7).
        """
        yield 2 * self.params.mmio_access_ps
        yield self.params.priv_cmd_ps
        old = (self.cur_act, self.cur_msgs)
        self.cur_act = new_act
        self.cur_msgs = new_msgs
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "act_switch", tile=self.tile,
                        old_act=old[0], old_msgs=old[1],
                        new_act=new_act, new_msgs=new_msgs)
        self._ctr_act_switches.value += 1
        return old

    def priv_read_cur_act(self) -> Generator:
        """Read CUR_ACT without switching."""
        yield 1 * self.params.mmio_access_ps
        return (self.cur_act, self.cur_msgs)

    def priv_insert_tlb(self, act: int, virt_page: int, phys_page: int,
                        perm: Perm, pinned: bool = False) -> Generator:
        yield 2 * self.params.mmio_access_ps
        yield self.params.priv_cmd_ps
        evicted = self.tlb.insert(act, virt_page, phys_page, perm,
                                  pinned=pinned)
        tracer = self.sim.tracer
        if tracer is not None:
            if evicted is not None:
                tracer.emit(self.sim, "tlb_evict", tile=self.tile,
                            act=evicted.act, vpage=evicted.virt_page)
            tracer.emit(self.sim, "tlb_fill", tile=self.tile, act=act,
                        vpage=virt_page, ppage=phys_page)

    def priv_fetch_core_req(self) -> Generator:
        """Read the head of the core-request queue (or None)."""
        yield 1 * self.params.mmio_access_ps
        return self._core_reqs[0] if self._core_reqs else None

    def priv_ack_core_req(self) -> Generator:
        """Pop the head core request; re-raises the IRQ if more remain."""
        yield 1 * self.params.mmio_access_ps
        yield self.params.priv_cmd_ps
        if self._core_reqs:
            self._core_reqs.popleft()
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "core_req_ack", tile=self.tile,
                            qlen=len(self._core_reqs))
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.sample(self.sim, f"tile{self.tile}/vdtu/core_req_q",
                               len(self._core_reqs))
        if self._overrun_waiters:
            self._overrun_waiters.pop(0).succeed()
        if self._core_reqs and self.irq_handler is not None:
            self.irq_handler()

    # -- physical memory protection (4.1, 4.3) --------------------------------------

    PMP_EPS = 4

    def pmp_select(self, phys: int) -> int:
        """PMP endpoint index: the upper two bits of the physical address."""
        return (phys >> 30) & 0x3

    def pmp_check(self, phys: int, size: int, perm: Perm) -> bool:
        """Would this last-level-cache miss be allowed?"""
        ep = self.eps[self.pmp_select(phys)]
        if not isinstance(ep, MemoryEndpoint):
            return False
        offset = phys - (self.pmp_select(phys) << 30)
        return ep.contains(offset, size) and (perm & ep.perm) == perm
