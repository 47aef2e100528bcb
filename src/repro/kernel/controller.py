"""The M3v communication controller (sections 2.1, 3.3, 4.3).

The controller runs alone on a dedicated tile (a Rocket core in the
FPGA platform).  It is single-threaded: system calls and TileMux
notifications are processed one at a time — the property that makes
M3x-style remote multiplexing a bottleneck (section 6.4) and that M3v
sidesteps by keeping context switches tile-local.

Responsibilities:
* knows all activities; creates them by asking the target tile's
  TileMux (``CREATE_ACT``);
* owns the capability system; establishes channels by configuring DTU
  endpoints over the external interface;
* owns physical memory: grants per-tile PMP windows and memory gates;
* forwards page mappings from the pager to the responsible TileMux.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.dtu import (
    ACT_TILEMUX,
    DtuFault,
    MemoryEndpoint,
    Perm,
    ReceiveEndpoint,
    SendEndpoint,
)
from repro.dtu.dtu import Dtu, ExtOp, ExtRequest
from repro.dtu.endpoints import UNLIMITED_CREDITS
from repro.kernel.activity import ActState, Activity, AddressSpace, PAGE_SIZE
from repro.kernel.caps import (
    CapError,
    CapKind,
    CapTable,
    Capability,
    MGateObj,
    RGateObj,
    SGateObj,
    ServiceObj,
    delegate,
    revoke,
)
from repro.kernel.memalloc import OutOfMemory, PhysAllocator, PhysRegion
from repro.kernel.protocol import (
    NotifyMsg,
    RpcMsg,
    RpcReply,
    Syscall,
    SyscallMsg,
    SyscallReply,
    TmuxNotify,
    TmuxOp,
    TmuxReply,
    TmuxReq,
)
from repro.noc.packet import Packet, PacketKind
from repro.sim import Channel
from repro.tiles.costs import CoreCosts, ROCKET

# Fixed endpoint layout on the controller tile.
EP_SYSCALL = 0      # receive gate for system calls
EP_NOTIFY = 1       # receive gate for TileMux notifications
EP_REPLY = 2        # receive gate for replies to controller requests
EP_DYN_BASE = 3     # dynamically allocated send gates

# Fixed endpoint layout on processing tiles (vDTU).
EP_PMP_BASE = 0     # endpoints 0..3 are PMP windows (section 4.1)
EP_TMUX_SEP = 4     # TileMux -> controller notifications
EP_TMUX_REP = 5     # controller -> TileMux requests
EP_TMUX_REPLY = 6   # TileMux's reply/pager-RPC receive gate
EP_TMUX_PAGER = 7   # TileMux -> pager send gate (configured on demand)
EP_USER_BASE = 8    # dynamically allocated endpoints

# Per-activity and per-tile memory grants (boot-time policy).
TILEMUX_REGION_BYTES = 64 * 1024
TILE_WINDOW_BYTES = 8 * 1024 * 1024
DEFAULT_HEAP_BYTES = 512 * 1024

_ext_tags = itertools.count(10_000_000)


class SyscallError(Exception):
    """A system call failed; carried back to the caller in the reply."""


class Controller:
    """The single-threaded communication controller."""

    # cycle costs of controller software paths (calibrated, see DESIGN.md)
    SYSCALL_BASE_CY = 600        # decode, cap-table work, reply build
    EXT_REQ_CY = 120             # issue one external request
    SPAWN_CY = 4000              # image setup, cap bootstrap
    FORWARD_CY = 3500            # M3x slow-path bookkeeping (per message)
    MIGRATE_CY = 2500            # migration orchestration bookkeeping

    def __init__(self, sim, tile_id: int, dtu: Dtu, costs: CoreCosts = ROCKET):
        self.sim = sim
        self.tile_id = tile_id
        self.dtu = dtu
        self.costs = costs
        self.clock = costs.clock
        self.stats = sim.stats

        self.acts: Dict[int, Activity] = {}
        self.tables: Dict[int, CapTable] = {}
        self.services: Dict[str, ServiceObj] = {}

        self.phys: Optional[PhysAllocator] = None
        self._tile_windows: Dict[int, List[PhysRegion]] = {}  # PMP windows
        self._window_brk: Dict[int, int] = {}    # bump offset in window 1
        self._tmux_seps: Dict[int, int] = {}     # tile -> our send EP
        self._ep_alloc: Dict[int, int] = {}      # tile -> next free user EP
        self._tilemuxes: Dict[int, Any] = {}     # tile -> TileMux (for boot)

        self._wake_waiters: List[Any] = []
        self._msg_latch = False
        self.dtu.msg_callback = self._on_msg
        self._req_lock = Channel(sim, capacity=1, name="ctrl-req-lock")
        self._req_lock.try_put(None)  # one token = one outstanding request
        self.busy_ps = 0             # total time spent processing (Fig. 9)
        self._proc = None

        # tile health tracking (repro.mux.recovery): fault reports per
        # tile, and tiles quarantined after repeated reports.  Inert
        # unless a recovery policy is installed and reports arrive.
        self.recovery = None
        self.tile_faults: Dict[int, int] = {}
        self.quarantined: set = set()

        # live-migration bookkeeping (repro.kernel.rebalance).  All of
        # it is plain-Python recording on paths that already run, so the
        # static-placement default costs no events.  EP ids are
        # *preserved* across migration — the controller reserves the
        # same id range on the target tile (and refuses the migration if
        # the target's allocator already passed it), which keeps every
        # EP id an activity's program captured at boot valid for life.
        self._act_tiles: Dict[int, int] = {}     # act -> current tile
        self._mig_eps: Dict[int, List[int]] = {}  # act -> its EP ids
        self._links: List[Dict[str, int]] = []   # channel records for
                                                 # peer send-EP retargets
        self._pending_retargets: List[Dict[str, Any]] = []
        self._tile_load: Dict[int, int] = {}     # LOAD beacon mailbox

    # ------------------------------------------------------------------ boot

    def boot(self, memories: List[Tuple[int, int]],
             n_tiles: int = 0) -> None:
        """Initialize memory and our own endpoints.

        ``memories`` is a list of (mem_tile_id, dram_size) pairs.
        Runs at platform-build time (before the simulation starts), so
        it configures endpoints directly without ext requests.
        ``n_tiles`` sizes the syscall/notify receive buffers: past 32
        processing tiles the default 64 slots can fill with every tile
        forwarding a syscall at once (m3x slow path), which would turn
        boot-storm NACK retries into the bottleneck.
        """
        slots = max(64, 2 * n_tiles)
        self.phys = PhysAllocator([PhysRegion(t, 0, s) for t, s in memories])
        self.dtu.configure(EP_SYSCALL, ReceiveEndpoint(slots=slots,
                                                       slot_size=512))
        self.dtu.configure(EP_NOTIFY, ReceiveEndpoint(slots=slots,
                                                      slot_size=256))
        self.dtu.configure(EP_REPLY, ReceiveEndpoint(slots=8, slot_size=512))
        self._proc = self.sim.process(self._main_loop(), name="controller")

    def boot_wire_tile(self, tile_id: int, tilemux) -> None:
        """Wire a processing tile's TileMux to the controller (boot time)."""
        vdtu = tilemux.vdtu
        self._tilemuxes[tile_id] = tilemux
        # PMP window 0: TileMux's own region; window 1: activity memory
        mux_region = self.phys.alloc(TILEMUX_REGION_BYTES)
        act_region = self.phys.alloc(TILE_WINDOW_BYTES)
        self._tile_windows[tile_id] = [mux_region, act_region]
        self._window_brk[tile_id] = 0
        vdtu.configure(EP_PMP_BASE + 0, MemoryEndpoint(
            act=ACT_TILEMUX, dst_tile=mux_region.mem_tile,
            base=mux_region.base, size=mux_region.size, perm=Perm.RW))
        vdtu.configure(EP_PMP_BASE + 1, MemoryEndpoint(
            act=ACT_TILEMUX, dst_tile=act_region.mem_tile,
            base=act_region.base, size=act_region.size, perm=Perm.RW))
        # TileMux <-> controller channels
        vdtu.configure(EP_TMUX_SEP, SendEndpoint(
            act=ACT_TILEMUX, dst_tile=self.tile_id, dst_ep=EP_NOTIFY,
            label=tile_id, credits=8, max_credits=8))
        vdtu.configure(EP_TMUX_REP, ReceiveEndpoint(
            act=ACT_TILEMUX, slots=4, slot_size=512))
        vdtu.configure(EP_TMUX_REPLY, ReceiveEndpoint(
            act=ACT_TILEMUX, slots=4, slot_size=512))
        sep = EP_DYN_BASE + len(self._tmux_seps)
        self.dtu.configure(sep, SendEndpoint(
            dst_tile=tile_id, dst_ep=EP_TMUX_REP, label=tile_id,
            credits=4, max_credits=4))
        self._tmux_seps[tile_id] = sep
        self._ep_alloc[tile_id] = EP_USER_BASE

    # ------------------------------------------------------------ primitives

    def _on_msg(self, ep_id: int) -> None:
        self._msg_latch = True
        waiters, self._wake_waiters = self._wake_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _wait_for_msg(self) -> Generator:
        """Sleep until a message arrives; latch avoids lost wake-ups for
        deposits that raced with the preceding fetches."""
        if self._msg_latch:
            self._msg_latch = False
            return
        ev = self.sim.event()
        self._wake_waiters.append(ev)
        yield ev
        self._msg_latch = False

    def _charge_ps(self, cycles: int) -> int:
        """Account ``cycles`` of controller occupancy; returns the delay."""
        ps = self.clock.cycles_to_ps(cycles)
        self.busy_ps += ps
        return ps

    def _ext(self, tile_id: int, op: ExtOp, args: Dict[str, Any]) -> Generator:
        """One external-interface request to a tile's DTU."""
        yield self._charge_ps(self.EXT_REQ_CY)
        req = Packet(PacketKind.EXT_REQ, src=self.tile_id, dst=tile_id,
                     size=48, payload=ExtRequest(op, args), tag=next(_ext_tags))
        result = yield from self.dtu._await_response(req)
        self.stats.counter("ctrl/ext_reqs").add()
        return result

    def config_ep(self, tile_id: int, ep_id: int, endpoint) -> Generator:
        yield from self._ext(tile_id, ExtOp.CONFIG_EP,
                             {"ep_id": ep_id, "endpoint": endpoint})

    def register_act_ep(self, act: Activity, ep_id: int,
                        endpoint=None, rgate: bool = False) -> None:
        """Record that ``ep_id`` belongs to ``act`` (M3x overrides this
        to save/restore endpoint sets; M3v uses it for migration)."""
        self._record_ep(act.act_id, ep_id)

    def _record_ep(self, act_id: int, ep_id: int) -> None:
        """Remember an EP id as part of ``act_id``'s migratable set."""
        eps = self._mig_eps.setdefault(act_id, [])
        if ep_id not in eps:
            eps.append(ep_id)

    def finalize_eps(self, act: Activity) -> Generator:
        """Hook after boot-time wiring of an activity's endpoints
        (M3x absorbs them into the snapshot if the activity is not
        currently scheduled; a no-op on M3v)."""
        return
        yield  # pragma: no cover

    def alloc_ep(self, tile_id: int) -> int:
        ep = self._ep_alloc[tile_id]
        self._ep_alloc[tile_id] = ep + 1
        if ep >= self.dtu.params.num_endpoints:
            raise SyscallError(f"tile {tile_id} out of endpoints")
        return ep

    def tmux_request(self, tile_id: int, op: TmuxOp,
                     args: Dict[str, Any]) -> Generator:
        """Send a request to a TileMux and await its reply."""
        yield self._req_lock.get()  # serialize: single-threaded controller
        try:
            req = TmuxReq(op, args)
            yield self._charge_ps(self.EXT_REQ_CY)
            yield from self.dtu.cmd_send(self._tmux_seps[tile_id], req,
                                         size=TmuxReq.SIZE, reply_ep=EP_REPLY)
            reply = yield from self._await_reply(req.seq)
        finally:
            self._req_lock.try_put(None)
        if not reply.ok:
            raise SyscallError(f"TileMux {tile_id} rejected {op.value}: "
                               f"{reply.error}")
        return reply

    def _await_reply(self, seq: int):
        while True:
            msg = yield from self.dtu.cmd_fetch(EP_REPLY)
            if msg is None:
                yield from self._wait_for_msg()
                continue
            yield from self.dtu.cmd_ack(EP_REPLY, msg)
            if msg.data.seq == seq:
                return msg.data
            # a reply for someone else cannot happen: requests are serialized
            raise RuntimeError(f"unexpected reply seq {msg.data.seq}")

    # ------------------------------------------------------------- main loop

    def _main_loop(self) -> Generator:
        """Process notifications and system calls, one at a time.

        Notifications (exits, M3x block reports) are drained first so a
        stream of system calls cannot starve the small notify gate.
        """
        while True:
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.sample(self.sim, "ctrl/sysc_q",
                               getattr(self.dtu.eps[EP_SYSCALL], "unread", 0)
                               + getattr(self.dtu.eps[EP_NOTIFY], "unread", 0))
            note = yield from self.dtu.cmd_fetch(EP_NOTIFY)
            if note is not None:
                yield from self._handle_notify(note)
                continue
            msg = yield from self.dtu.cmd_fetch(EP_SYSCALL)
            if msg is not None:
                yield from self._handle_syscall(msg)
                continue
            yield from self._wait_for_msg()

    def _handle_notify(self, msg) -> Generator:
        note: NotifyMsg = msg.data
        yield self._charge_ps(self.SYSCALL_BASE_CY)
        if note.kind is TmuxNotify.EXIT:
            act = self.acts.get(note.args["act_id"])
            if act is not None:
                act.state = ActState.EXITED
                act.exit_code = note.args.get("code", 0)
                self._act_tiles.pop(act.act_id, None)  # off the migration radar
                if act.exit_event is not None and not act.exit_event.triggered:
                    act.exit_event.succeed(act.exit_code)
                self.stats.counter("ctrl/exits").add()
        elif note.kind is TmuxNotify.FAULT:
            self.report_tile_fault(note.args.get("tile", msg.label),
                                   note.args.get("reason", "unknown"))
        elif note.kind is TmuxNotify.LOAD:
            self._tile_load[note.args["tile"]] = note.args["depth"]
        yield from self.dtu.cmd_ack(EP_NOTIFY, msg)

    # --------------------------------------------------------- tile health

    def report_tile_fault(self, tile_id: int, reason: str = "report") -> None:
        """Record one fault report; quarantine the tile when they pile up.

        Called from the notify path (TileMux watchdog barks) and directly
        by fault-detection machinery standing in for a machine-check
        interrupt.  Quarantine is degraded-mode operation: already-placed
        activities keep running (faults are transient and bounded), but
        :meth:`spawn` steers *new* activities to healthy tiles.
        """
        count = self.tile_faults.get(tile_id, 0) + 1
        self.tile_faults[tile_id] = count
        self.stats.counter("ctrl/fault_reports").add()
        threshold = (self.recovery.quarantine_faults
                     if self.recovery is not None else 3)
        if count == threshold and tile_id not in self.quarantined:
            self.quarantined.add(tile_id)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "tile_quarantine", tile=tile_id,
                            faults=count)
            self.stats.counter("ctrl/quarantines").add()

    def place_tile(self, preferred: int) -> int:
        """The tile a new activity should land on, honoring quarantine.

        Falls back to the preferred tile when every wired tile is
        quarantined — running degraded beats refusing to run.
        """
        if preferred not in self.quarantined:
            return preferred
        for tid in sorted(self._tmux_seps):
            if tid not in self.quarantined:
                self.stats.counter("ctrl/migrated_spawns").add()
                return tid
        return preferred

    def _handle_syscall(self, msg) -> Generator:
        call: SyscallMsg = msg.data
        caller = msg.label  # the controller stamped the act id as label
        yield self._charge_ps(self.SYSCALL_BASE_CY)
        self.stats.counter("ctrl/syscalls").add()
        try:
            handler = getattr(self, f"_sys_{call.op.value}")
            value = yield from handler(caller, call.args)
            reply = SyscallReply(call.seq, ok=True, value=value)
        except (SyscallError, CapError, DtuFault, OutOfMemory) as exc:
            reply = SyscallReply(call.seq, ok=False, error=str(exc))
            self.stats.counter("ctrl/syscall_errors").add()
        yield from self._send_syscall_reply(caller, msg, reply)

    def _send_syscall_reply(self, caller: int, msg, reply) -> Generator:
        yield from self.dtu.cmd_reply(EP_SYSCALL, msg, reply, SyscallReply.SIZE)

    # ------------------------------------------------------------- syscalls

    def _table(self, act_id: int) -> CapTable:
        table = self.tables.get(act_id)
        if table is None:
            raise SyscallError(f"unknown activity {act_id}")
        return table

    def _sys_noop(self, caller: int, args) -> Generator:
        return None
        yield  # pragma: no cover

    def _sys_create_rgate(self, caller: int, args) -> Generator:
        obj = RGateObj(slots=args.get("slots", 8),
                       slot_size=args.get("slot_size", 512))
        cap = self._table(caller).insert(CapKind.RGATE, obj)
        return cap.sel
        yield  # pragma: no cover

    def _sys_create_sgate(self, caller: int, args) -> Generator:
        rcap = self._table(caller).get(args["rgate_sel"], CapKind.RGATE)
        obj = SGateObj(rgate=rcap.obj, label=args.get("label", 0),
                       credits=args.get("credits", 1))
        cap = self._table(caller).insert(CapKind.SGATE, obj, parent=rcap)
        return cap.sel
        yield  # pragma: no cover

    def _sys_create_mgate(self, caller: int, args) -> Generator:
        size = args["size"]
        region = self.phys.alloc(size)
        obj = MGateObj(mem_tile=region.mem_tile, base=region.base,
                       size=region.size, perm=args.get("perm", Perm.RW))
        cap = self._table(caller).insert(CapKind.MGATE, obj)
        return cap.sel
        yield  # pragma: no cover

    def _sys_derive_mgate(self, caller: int, args) -> Generator:
        parent = self._table(caller).get(args["mgate_sel"], CapKind.MGATE)
        obj = parent.obj.derive(args["offset"], args["size"],
                                args.get("perm", parent.obj.perm))
        cap = self._table(caller).insert(CapKind.MGATE, obj, parent=parent)
        return cap.sel
        yield  # pragma: no cover

    def _sys_delegate(self, caller: int, args) -> Generator:
        """Delegate one of the caller's caps to another activity.

        Authority note: real M3 requires the caller to hold an activity
        capability for the target or to exchange over a session; we
        accept the target act id directly and charge the same costs.
        """
        cap = self._table(caller).get(args["sel"])
        target = self._table(args["target_act"])
        child = delegate(cap, target, sel=args.get("target_sel"))
        return child.sel
        yield  # pragma: no cover

    def _sys_activate(self, caller: int, args) -> Generator:
        """Configure a DTU endpoint from a capability (the only way
        communication channels come into existence)."""
        act = self.acts[caller]
        cap = self._table(caller).get(args["sel"])
        ep_id = args.get("ep_id")
        if ep_id is None:
            ep_id = self.alloc_ep(act.tile_id)
        obj = cap.obj
        if cap.kind is CapKind.RGATE:
            endpoint = ReceiveEndpoint(act=caller, slots=obj.slots,
                                       slot_size=obj.slot_size)
            obj.tile, obj.ep, obj.owner_act = act.tile_id, ep_id, caller
        elif cap.kind is CapKind.SGATE:
            if not obj.rgate.activated:
                raise SyscallError("target rgate not activated yet")
            endpoint = SendEndpoint(act=caller, dst_tile=obj.rgate.tile,
                                    dst_ep=obj.rgate.ep, label=obj.label,
                                    max_msg_size=obj.rgate.slot_size,
                                    credits=obj.credits, max_credits=obj.credits)
            obj.tile, obj.ep = act.tile_id, ep_id
        elif cap.kind is CapKind.MGATE:
            endpoint = MemoryEndpoint(act=caller, dst_tile=obj.mem_tile,
                                      base=obj.base, size=obj.size,
                                      perm=obj.perm)
            obj.tile, obj.ep = act.tile_id, ep_id
        else:
            raise SyscallError(f"cannot activate a {cap.kind.value} capability")
        yield from self._install_ep(act, ep_id, endpoint)
        self._record_ep(caller, ep_id)
        if cap.kind is CapKind.SGATE and obj.rgate.owner_act is not None:
            self._links.append({"src_act": caller, "send_ep": ep_id,
                                "dst_act": obj.rgate.owner_act,
                                "recv_ep": obj.rgate.ep})
        return ep_id

    def _install_ep(self, act: Activity, ep_id: int, endpoint) -> Generator:
        """Write an endpoint for ``act`` (M3x redirects this into the
        saved endpoint state when the activity is descheduled)."""
        yield from self.config_ep(act.tile_id, ep_id, endpoint)

    def _sys_revoke(self, caller: int, args) -> Generator:
        cap = self._table(caller).get(args["sel"])
        victims = [c for c in cap.subtree()]
        count = revoke(cap, self.tables)
        # deactivate every endpoint configured from a revoked capability
        for victim in victims:
            obj = victim.obj
            if getattr(obj, "ep", None) is not None and victim.kind in (
                    CapKind.RGATE, CapKind.SGATE, CapKind.MGATE):
                yield from self._ext(obj.tile, ExtOp.INVAL_EP,
                                     {"ep_id": obj.ep})
                obj.ep = None
        return count

    def _sys_map(self, caller: int, args) -> Generator:
        """Map pages into a client's address space (pager requests this).

        The controller validates the memory capability, then forwards
        the mapping to the TileMux responsible for the client — it does
        not touch page tables itself (section 4.3).
        """
        mcap = self._table(caller).get(args["mgate_sel"], CapKind.MGATE)
        target = self.acts.get(args["act_id"])
        if target is None:
            raise SyscallError(f"unknown activity {args['act_id']}")
        pages = args["pages"]
        offset = args.get("offset", 0)
        if offset + pages * PAGE_SIZE > mcap.obj.size:
            raise SyscallError("mapping exceeds the memory capability")
        # translate the mgate window into the tile's PMP phys space
        phys_page = self._phys_page_for(target.tile_id, mcap.obj, offset)
        yield from self.tmux_request(target.tile_id, TmuxOp.MAP, {
            "act_id": target.act_id,
            "virt_page": args["virt"] // PAGE_SIZE,
            "phys_page": phys_page,
            "pages": pages,
            "perm": args.get("perm", Perm.RW),
        })
        return None

    def _phys_page_for(self, tile_id: int, mgate: MGateObj, offset: int) -> int:
        """Physical page number in the tile's PMP address space."""
        window = self._tile_windows[tile_id][1]
        if (mgate.mem_tile == window.mem_tile
                and window.base <= mgate.base + offset < window.base + window.size):
            in_window = mgate.base + offset - window.base
            return ((1 << 30) + in_window) // PAGE_SIZE
        # outside the activity window: fall back to window-2 style identity
        return ((2 << 30) + mgate.base + offset) // PAGE_SIZE

    # --------------------------------------------------------------- spawning

    def spawn(self, name: str, tile_id: int, program,
              pager: Optional[str] = None,
              heap_bytes: int = DEFAULT_HEAP_BYTES) -> Generator:
        """Create an activity on ``tile_id`` running ``program``.

        A generator: run it in a simulation process.  Returns the
        :class:`Activity`.  With ``pager`` set to a service name, the
        heap is demand-paged through that pager; otherwise all pages
        are mapped eagerly (like the voice assistant's scanner, 6.5.1).
        """
        tile_id = self.place_tile(tile_id)
        act = Activity(name=name, tile_id=tile_id, program=program)
        act.exit_event = self.sim.event()
        self.acts[act.act_id] = act
        self.tables[act.act_id] = CapTable(act.act_id)
        yield self._charge_ps(self.SPAWN_CY)

        # heap memory: carve frames out of the tile's PMP window
        brk = self._window_brk[tile_id]
        if brk + heap_bytes > TILE_WINDOW_BYTES:
            raise SyscallError(f"tile {tile_id} PMP window exhausted")
        self._window_brk[tile_id] = brk + heap_bytes
        heap_phys_page = ((1 << 30) + brk) // PAGE_SIZE
        n_pages = heap_bytes // PAGE_SIZE
        if pager is None:
            for i in range(n_pages):
                act.addrspace.map_page(
                    AddressSpace.HEAP_BASE // PAGE_SIZE + i,
                    heap_phys_page + i, Perm.RW)
        else:
            act.addrspace.add_lazy_region(AddressSpace.HEAP_BASE,
                                          heap_bytes, Perm.RW)
            srv = self.services.get(pager)
            if srv is None:
                raise SyscallError(f"pager service {pager!r} not registered")
            pager_service = srv.meta.get("service")
            if pager_service is None or srv.rgate.owner_act is None:
                raise SyscallError(f"pager service {pager!r} not booted")
            # session setup: the pager gets a memory gate over the client's
            # frames and records the demand-paged region
            window = self._tile_windows[tile_id][1]
            mgate = MGateObj(mem_tile=window.mem_tile,
                             base=window.base + brk, size=heap_bytes,
                             perm=Perm.RW)
            pager_cap = self._table(srv.rgate.owner_act).insert(
                CapKind.MGATE, mgate)
            from repro.services.pager import PagerClient
            pager_service.register(PagerClient(
                act_id=act.act_id, mgate_sel=pager_cap.sel,
                base_virt=AddressSpace.HEAP_BASE, frames=n_pages))
            act.pager_session = {"service": pager}
            yield self._charge_ps(2 * self.SYSCALL_BASE_CY)

        # syscall channel endpoints
        sep = self.alloc_ep(tile_id)
        rep = self.alloc_ep(tile_id)
        act.sysc_sep, act.sysc_rep = sep, rep
        self._act_tiles[act.act_id] = tile_id
        self._record_ep(act.act_id, sep)
        self._record_ep(act.act_id, rep)
        yield from self.config_ep(tile_id, rep, ReceiveEndpoint(
            act=act.act_id, slots=1, slot_size=256))
        yield from self.config_ep(tile_id, sep, SendEndpoint(
            act=act.act_id, dst_tile=self.tile_id, dst_ep=EP_SYSCALL,
            label=act.act_id, max_msg_size=SyscallMsg.SIZE,
            credits=1, max_credits=1))

        yield from self.tmux_request(tile_id, TmuxOp.CREATE_ACT,
                                     {"activity": act})
        self.stats.counter("ctrl/spawns").add()
        return act

    # ------------------------------------------------------- boot-time channels

    def wire_channel(self, src_act: Activity, dst_act: Activity,
                     slots: int = 8, slot_size: int = 512, credits: int = 1,
                     label: int = 0) -> Generator:
        """Boot-style channel setup: rgate at dst, sgate at src.

        Returns ``(send_ep, recv_ep, reply_ep)``; the reply gate is
        created at the source so RPC-style request/response works.
        Charged like the equivalent sequence of system calls.
        """
        yield self._charge_ps(3 * self.SYSCALL_BASE_CY)
        recv_ep = self.alloc_ep(dst_act.tile_id)
        yield from self.config_ep(dst_act.tile_id, recv_ep, ReceiveEndpoint(
            act=dst_act.act_id, slots=slots, slot_size=slot_size))
        reply_ep = self.alloc_ep(src_act.tile_id)
        yield from self.config_ep(src_act.tile_id, reply_ep, ReceiveEndpoint(
            act=src_act.act_id, slots=max(2, credits), slot_size=slot_size))
        send_ep = self.alloc_ep(src_act.tile_id)
        yield from self.config_ep(src_act.tile_id, send_ep, SendEndpoint(
            act=src_act.act_id, dst_tile=dst_act.tile_id, dst_ep=recv_ep,
            label=label or src_act.act_id, max_msg_size=slot_size,
            credits=credits, max_credits=credits))
        self._record_ep(dst_act.act_id, recv_ep)
        self._record_ep(src_act.act_id, reply_ep)
        self._record_ep(src_act.act_id, send_ep)
        self._links.append({"src_act": src_act.act_id, "send_ep": send_ep,
                            "dst_act": dst_act.act_id, "recv_ep": recv_ep})
        return send_ep, recv_ep, reply_ep

    def wire_memory(self, act: Activity, mem_tile: int, base: int, size: int,
                    perm: Perm = Perm.RW, ep_id: Optional[int] = None) -> Generator:
        """Boot-style memory endpoint for ``act`` (e.g. the fs image)."""
        yield self._charge_ps(self.SYSCALL_BASE_CY)
        if ep_id is None:
            ep_id = self.alloc_ep(act.tile_id)
        yield from self.config_ep(act.tile_id, ep_id, MemoryEndpoint(
            act=act.act_id, dst_tile=mem_tile, base=base, size=size, perm=perm))
        self._record_ep(act.act_id, ep_id)
        return ep_id

    # ------------------------------------------------------------- migration

    def migrate(self, act_id: int, dst_tile: int) -> Generator:
        """Live-migrate an activity to ``dst_tile``; returns True on success.

        Protocol (exactly-once and in-order across the move):

        1. ``MIGRATE_OUT`` detaches the activity from its TileMux; the
           tile-side re-validation is authoritative (running/sleeping
           activities are refused, nothing has changed on refusal).
        2. ``MIGRATE_EPS`` atomically snapshots + invalidates the
           activity's endpoints at the source vDTU *and* installs
           holding forward stubs in the same instant — no packet can
           slip between drain and forwarding.
        3. ``WRITE_EPS`` installs the snapshot at the target (same EP
           ids), then ``MIGRATE_IN`` hands the context to the target
           TileMux, which recounts unread messages from the live EP
           table — a forwarded packet may land between the snapshot
           and the handoff, so the snapshot's count is only a hint.
        4. ``RELEASE_FWD`` flushes held packets in arrival order; from
           here the stubs relay live.  Peers' send EPs are lazily
           repointed via :meth:`drain_retargets`.

        Refused for service owners (sessions would dangle), pager-backed
        activities (the pager's frame gate pins the source window), and
        when the target tile's EP allocator already passed the
        activity's EP id range.
        """
        act = self.acts.get(act_id)
        src_tile = self._act_tiles.get(act_id)
        eps = sorted(self._mig_eps.get(act_id, ()))
        if (act is None or act.state is ActState.EXITED or not eps
                or src_tile is None or src_tile == dst_tile
                or dst_tile not in self._tmux_seps
                or act.pager_session is not None
                or any(srv.rgate.owner_act == act_id
                       for srv in self.services.values())
                or eps[0] < self._ep_alloc[dst_tile]):
            self.stats.counter("ctrl/migrate_refused").add()
            return False
        # Reserve the same EP ids on the target *before* the first yield:
        # no id translation, so every EP id the program captured at boot
        # stays valid — and a spawn racing with the MIGRATE_OUT round
        # trip must not hand out ids inside the incoming range (it would
        # be silently clobbered by WRITE_EPS).  On refusal the skipped
        # ids are leaked, which is harmless: the allocator is monotonic
        # and the table is large.
        self._ep_alloc[dst_tile] = eps[-1] + 1
        yield self._charge_ps(self.MIGRATE_CY)
        try:
            yield from self.tmux_request(src_tile, TmuxOp.MIGRATE_OUT,
                                         {"act_id": act_id})
        except SyscallError:
            self.stats.counter("ctrl/migrate_refused").add()
            return False
        fwd = {ep: (dst_tile, ep) for ep in eps}
        snap = yield from self._ext(src_tile, ExtOp.MIGRATE_EPS,
                                    {"ep_ids": eps, "fwd": fwd})
        msgs = sum(ep.unread for ep in snap.values()
                   if isinstance(ep, ReceiveEndpoint))
        yield from self._ext(dst_tile, ExtOp.WRITE_EPS, {"eps": snap})
        yield from self.tmux_request(dst_tile, TmuxOp.MIGRATE_IN,
                                     {"activity": act, "msgs": msgs})
        yield from self._ext(src_tile, ExtOp.RELEASE_FWD, {"ep_ids": eps})
        self._act_tiles[act_id] = dst_tile
        for link in self._links:
            if link["dst_act"] == act_id:
                self._queue_retarget(link, src_tile, dst_tile)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "migrate", tile=self.tile_id, act=act_id,
                        src=src_tile, dst=dst_tile)
        self.stats.counter("ctrl/migrations").add()
        return True

    def _queue_retarget(self, link: Dict[str, int], src_tile: int,
                        dst_tile: int) -> None:
        for pend in self._pending_retargets:
            if pend["link"] is link:
                # migrated again before the peer caught up: the peer's EP
                # still points at the *original* location, so keep old_*
                pend["new_tile"] = dst_tile
                return
        self._pending_retargets.append({"link": link, "old_tile": src_tile,
                                        "new_tile": dst_tile, "tries": 0})

    def drain_retargets(self) -> Generator:
        """Repoint peers' send EPs at migrated receive EPs.

        A retarget succeeds only when every credit of the peer's send EP
        is home (nothing in flight, so no reordering); until then the
        source tile's forward stub keeps the channel correct and we
        retry on a later tick.  Permanently-busy or unlimited-credit
        channels keep their stub forever — an extra hop, not an error.
        """
        pending, self._pending_retargets = self._pending_retargets, []
        for pend in pending:
            link = pend["link"]
            peer_tile = self._act_tiles.get(link["src_act"])
            if peer_tile is None:
                continue  # peer exited; nothing left to repoint
            ok = yield from self._ext(peer_tile, ExtOp.RETARGET_EP, {
                "ep_id": link["send_ep"], "old_tile": pend["old_tile"],
                "old_ep": link["recv_ep"], "new_tile": pend["new_tile"],
                "new_ep": link["recv_ep"]})
            if ok:
                self.stats.counter("ctrl/retargets").add()
                continue
            pend["tries"] += 1
            if pend["tries"] < 64:
                self._pending_retargets.append(pend)
            else:
                self.stats.counter("ctrl/retargets_dropped").add()
