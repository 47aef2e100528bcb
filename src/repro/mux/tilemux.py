"""TileMux — the tile-local multiplexer of M3v (sections 3.3, 4.2).

TileMux runs in the core's privileged mode.  It

* schedules resident activities with a preemptive round-robin scheduler
  (or EDF, :mod:`repro.mux.sched`) and time slices,
* services TMCalls (block, yield, exit, translate, sleep),
* handles core requests from the vDTU (messages for non-running
  activities) and keeps the per-activity unread-message counters,
* maintains page tables and the vDTU's software-loaded TLB, handing
  page faults to the pager service,
* processes controller requests (create/kill activities, apply
  mappings) — it has no control beyond its own tile.

Implementation notes on fidelity: activities are Python generators;
preemption and interrupt delivery happen at yield boundaries, and long
computations are chunked (``ActivityApi.compute``), which bounds timer
skew to one chunk.  The lost-wakeup avoidance of section 3.7 is
implemented literally: TileMux re-checks the message count returned by
the vDTU's atomic activity switch before committing to block a context.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.dtu import ACT_INVALID, ACT_TILEMUX, DtuFault, VDtu
from repro.dtu.endpoints import EndpointKind, Perm
from repro.kernel.activity import ActState, Activity, PageFault, PAGE_SIZE
from repro.kernel.protocol import (
    NotifyMsg,
    PagerOp,
    RpcMsg,
    RpcReply,
    TmuxNotify,
    TmuxOp,
    TmuxReply,
    TmuxReq,
)
from repro.mux.api import ActivityApi, TmCall
from repro.mux.sched import SchedSpec, make_ready_queue
from repro.sim.engine import Event
from repro.tiles.costs import CoreCosts

# endpoint layout shared with the controller (import cycle avoided)
EP_TMUX_SEP = 4
EP_TMUX_REP = 5
EP_TMUX_REPLY = 6
EP_TMUX_PAGER = 7

DEFAULT_TIMESLICE_US = 1000.0


class TileMux:
    """One TileMux instance per general-purpose tile."""

    CREATE_ACT_CY = 2000     # address-space setup, context creation
    MAP_BASE_CY = 200        # apply-mapping request overhead
    MAP_PER_PAGE_CY = 30
    EXIT_CY = 400
    MIGRATE_BASE_CY = 1500   # context pack/unpack overhead
    MIGRATE_PER_PAGE_CY = 30  # page-table walk per mapped page

    def __init__(self, sim, tile_id: int, vdtu: VDtu, costs: CoreCosts,
                 timeslice_us: float = DEFAULT_TIMESLICE_US,
                 sched: Optional[SchedSpec] = None,
                 beacon_us: Optional[float] = None):
        self.sim = sim
        self.tile_id = tile_id
        self.vdtu = vdtu
        self.costs = costs
        self.clock = costs.clock
        self.stats = sim.stats
        self.timeslice_ps = round(timeslice_us * 1_000_000)
        # hot-path charge constants: the clock never changes after init,
        # and cycles_to_ps is linear, so these are exact
        self._tmcall_enter_ps = self.clock.cycles_to_ps(
            costs.trap_enter + costs.tmcall_dispatch)
        self._trap_exit_ps = self.clock.cycles_to_ps(costs.trap_exit)
        self._sched_pick_ps = self.clock.cycles_to_ps(costs.sched_pick)
        self._timer_ps = self.clock.cycles_to_ps(costs.timer_program)
        self._ctr_blocks = self.stats.counter("tilemux/blocks")
        self._ctr_switches = self.stats.counter("tilemux/ctx_switches")

        # API flavour bound to activities at CREATE_ACT (the mediated
        # variant exists for the section-3.5 ablation)
        self.api_class = ActivityApi
        self.acts: Dict[int, Activity] = {}
        # the ready queue: a deque (round-robin) or an EdfQueue
        # (repro.mux.sched)
        self.sched_spec = sched if sched is not None else SchedSpec()
        self.ready = make_ready_queue(self.sched_spec)
        self.current: Optional[Activity] = None
        self._last_dispatched: Optional[Activity] = None
        self._own_msgs = 0                     # TileMux's unread counter
        self._pf_pending: Dict[int, Activity] = {}
        self._poll_waiters: list = []
        self._wake: Event = sim.event()
        self._wake_waiting = False   # main loop is parked in _idle
        self.idle_ps = 0
        # fault-recovery policy (repro.mux.recovery); None = watchdog off
        # and no mux-level retransmission — the fault-free default
        self.recovery = None
        # load beacon (adaptive placement): off unless a PlacementSpec
        # asked for it, so the default path schedules no extra events
        self._beacon_due = False
        self._beacon_ps = None if beacon_us is None else round(
            beacon_us * 1_000_000)
        vdtu.irq_handler = self._on_irq
        self._proc = sim.process(self._main_loop(), name=f"tilemux{tile_id}")
        if self._beacon_ps:
            sim.process(self._beacon_timer(), name=f"beacon{tile_id}")

    # ----------------------------------------------------------- public hints

    def others_ready(self, act: Activity) -> bool:
        """The shared-memory 'are others ready' hint of section 3.7."""
        return bool(self.ready)

    def poll_signal(self):
        """An event for the library's poll loop (section 3.7): fires when
        a message for the current activity arrives *or* the vDTU raises
        a core request (so TileMux can run and service other events).
        The hardware poll observes CUR_ACT continuously; this keeps the
        simulated detection latency at the poll-iteration cost instead
        of a coarse backoff."""
        ev = self.sim.event()
        if self.vdtu.cur_msgs > 0 or self.vdtu.core_req_pending:
            ev.succeed()
            return ev
        self.vdtu.cur_msg_waiters.append(ev)
        self._poll_waiters.append(ev)
        return ev

    @property
    def resident(self) -> int:
        return len(self.acts)

    # ---------------------------------------------------------------- wiring

    def _on_irq(self) -> None:
        # only schedule a wake event if the main loop is parked in _idle:
        # core_req_pending stays set until serviced (it is re-checked
        # before every wait), and an un-waited wake pop is pure queue load
        if self._wake_waiting and not self._wake.triggered:
            self._wake.succeed()
        waiters, self._poll_waiters = self._poll_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def _emit(self, kind: str, **fields) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, kind, tile=self.tile_id, **fields)

    # -------------------------------------------------------------- main loop

    def _main_loop(self) -> Generator:
        while True:
            if self.vdtu.core_req_pending:
                yield from self._handle_core_reqs()
                continue
            if self._own_msgs > 0:
                # a controller request landed while CUR_ACT was already
                # ACT_TILEMUX (e.g. during a beacon/watchdog send): the
                # same-act deposit raised no core request, the restoring
                # exchange only recorded the count — service it now or
                # it strands unread while the tile parks
                yield from self._service_own_messages()
                continue
            if self._beacon_due:
                yield from self._beacon_report()
            ctx = yield from self._pick()
            if ctx is None:
                yield from self._idle()
                continue
            yield from self._dispatch(ctx)

    def _pick(self) -> Generator:
        yield self._sched_pick_ps
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.sample(self.sim, f"tile{self.tile_id}/tilemux/ready_q",
                           len(self.ready))
        if self.ready:
            return self.ready.popleft()
        return None

    def _idle(self) -> Generator:
        """No runnable activity: park the vDTU so any arrival interrupts."""
        if self.vdtu.cur_act != ACT_INVALID:
            yield from self._switch_vdtu(ACT_INVALID, 0)
            if self.ready:
                # the exchange itself averted a lost wakeup: the message
                # landed while the blocking activity was still CUR_ACT,
                # so no core request (and hence no IRQ) will ever fire —
                # parking now would strand the requeued activity forever
                return
        if self.vdtu.core_req_pending or self._own_msgs > 0:
            return
        if self._wake.triggered:
            self._wake = self.sim.event()
        start = self.sim.now
        self._wake_waiting = True
        yield self._wake
        self._wake_waiting = False
        self.idle_ps += self.sim.now - start

    def _switch_vdtu(self, new_act: int, new_msgs: int) -> Generator:
        """Atomic CUR_ACT exchange + lost-wakeup re-check (section 3.7)."""
        old_act, old_msgs = yield from self.vdtu.priv_xchg_act(new_act, new_msgs)
        if old_act == ACT_TILEMUX:
            self._own_msgs = old_msgs
        elif old_act != ACT_INVALID:
            act = self.acts.get(old_act)
            if act is not None:
                act.msgs = old_msgs
                if act.state is ActState.BLOCKED and old_msgs > 0:
                    # a message slipped in between the check and the switch
                    act.state = ActState.READY
                    self.ready.append(act)
                    self._emit("act_wake", act=old_act, reason="lost_wakeup")
                    self.stats.counter("tilemux/lost_wakeups_averted").add()
        return old_act, old_msgs

    # ------------------------------------------------------------- dispatching

    def _dispatch(self, ctx: Activity) -> Generator:
        if self._last_dispatched is not ctx:
            switch_start = self.sim.now
            yield self.clock.cycles_to_ps(self.costs.ctx_switch)
            self._ctr_switches.add()
            self._last_dispatched = ctx
            yield from self._switch_vdtu(ctx.act_id, ctx.msgs)
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.observe(f"tile{self.tile_id}/tilemux/switch_ps",
                                self.sim.now - switch_start)
        else:
            yield from self._switch_vdtu(ctx.act_id, ctx.msgs)
        ctx.msgs = 0  # now live in CUR_ACT
        ctx.state = ActState.RUNNING
        self.current = ctx
        ctx.slice_end = self.sim.now + self.timeslice_ps
        yield self._timer_ps

        run_start = self.sim.now
        inject_val: Any = ctx._resume_value
        ctx._resume_value = None
        keep_running = True
        while keep_running:
            # interrupt window between operations
            if self.vdtu.core_req_pending:
                yield from self._handle_core_reqs()
            if self._beacon_due:
                yield from self._beacon_report()
            if ctx._migrated:
                # MIGRATE_OUT detached the running activity during the
                # interrupt window above: stop driving its generator (it
                # resumes on the target tile via _resume_value)
                ctx._migrated = False
                ctx._resume_value = inject_val
                break
            if self.sim.now >= ctx.slice_end and self.ready:
                yield self.clock.cycles_to_ps(self.costs.irq_entry
                                        + self.costs.timer_program)
                ctx.state = ActState.READY
                ctx._resume_value = inject_val  # re-inject after preemption
                self.ready.append(ctx)
                self._emit("preempt", act=ctx.act_id)
                self.stats.counter("tilemux/preemptions").add()
                if self.recovery is not None:
                    yield from self._watchdog_tick(ctx)
                break
            try:
                item = ctx.gen.send(inject_val)
            except StopIteration:
                yield from self._exit(ctx, code=0)
                break
            inject_val = None
            if type(item) is int or isinstance(item, Event):
                # ints are the engine's timeout fast path; forward as-is
                inject_val = yield item
            elif isinstance(item, TmCall):
                inject_val, keep_running = yield from self._tmcall(ctx, item)
            elif item is None:
                pass  # cooperative checkpoint
            else:
                raise RuntimeError(f"activity {ctx.name} yielded {item!r}")

        self.current = None
        # All time of this dispatch — including TileMux's own work — is
        # accounted to the activity (the paper accounts TileMux as user
        # time "for implementation-specific reasons", section 6.5.2).
        ctx.user_ps += self.sim.now - run_start

    # ----------------------------------------------------------------- watchdog

    def _watchdog_tick(self, ctx: Activity) -> Generator:
        """Count whole timeslices an activity burned without trapping.

        Any TMCall proves the activity still makes scheduling progress
        and resets the count; ``watchdog_slices`` consecutive full slices
        mean it is likely wedged on a faulty resource, so TileMux reports
        the tile to the controller (best effort: if the notify channel is
        out of credits the report is dropped, not the schedule).
        """
        ctx.wd_slices += 1
        if ctx.wd_slices != self.recovery.watchdog_slices:
            return
        self._emit("watchdog", act=ctx.act_id, slices=ctx.wd_slices)
        self.stats.counter("tilemux/watchdog_barks").add()
        try:
            yield from self._send_as_tilemux(
                EP_TMUX_SEP,
                NotifyMsg(TmuxNotify.FAULT,
                          {"tile": self.tile_id, "act_id": ctx.act_id,
                           "reason": "watchdog"}),
                NotifyMsg.SIZE)
        except DtuFault:
            self.stats.counter("tilemux/watchdog_notify_dropped").add()

    # ----------------------------------------------------------------- beacon

    def _beacon_timer(self) -> Generator:
        """Periodically flag a load report; the main/dispatch loop sends it.

        The timer never touches CUR_ACT itself — switching endpoints
        concurrently with the dispatch loop would corrupt the unread
        counters — it only raises a flag serviced at the same safe
        points as core requests (the _watchdog_tick pattern).
        """
        while True:
            yield self._beacon_ps
            self._beacon_due = True
            self._on_irq()

    def _beacon_report(self) -> Generator:
        self._beacon_due = False
        depth = len(self.ready) + (1 if self.current is not None else 0)
        try:
            yield from self._send_as_tilemux(
                EP_TMUX_SEP,
                NotifyMsg(TmuxNotify.LOAD,
                          {"tile": self.tile_id, "depth": depth}),
                NotifyMsg.SIZE)
        except DtuFault:
            # best effort, like the watchdog: a stale sample is fine
            self.stats.counter("tilemux/load_notify_dropped").add()

    # ----------------------------------------------------------------- TMCalls

    def _tmcall(self, ctx: Activity, call: TmCall) -> Generator:
        """Returns (resume_value, keep_running)."""
        ctx.wd_slices = 0  # trapping at all counts as forward progress
        yield self._tmcall_enter_ps
        op = call.op
        if op == "block":
            # atomic check against the live CUR_ACT count: a message may
            # have arrived since the activity's last fetch
            if self.vdtu.cur_msgs > 0:
                yield self._trap_exit_ps
                return False, True  # not blocked; messages await
            if ctx._dev_kick:
                ctx._dev_kick = False  # a device interrupt raced the trap
                yield self._trap_exit_ps
                return False, True
            ctx.state = ActState.BLOCKED
            self._emit("act_block", act=ctx.act_id)
            self._ctr_blocks.add()
            return None, False
        if op == "yield":
            ctx.state = ActState.READY
            self.ready.append(ctx)
            return None, False
        if op == "sleep":
            ctx.state = ActState.BLOCKED
            ctx._sleeping = True
            self._emit("act_block", act=ctx.act_id)
            deadline = self.sim.now + call.args["ps"]
            self.sim.process(self._wake_after(ctx, deadline),
                             name=f"sleep-{ctx.name}")
            return None, False
        if op == "exit":
            yield from self._exit(ctx, call.args.get("code", 0))
            return None, False
        if op == "translate":
            ok, blocked = yield from self._translate(ctx, call.args["virt"],
                                                     call.args["perm"])
            if blocked:
                return None, False
            yield self._trap_exit_ps
            return ok, True
        raise RuntimeError(f"unknown TMCall {op!r}")

    def _wake_after(self, ctx: Activity, deadline: int) -> Generator:
        yield max(0, deadline - self.sim.now)
        ctx._sleeping = False
        if self.acts.get(ctx.act_id) is not ctx:
            return  # exited (or migrated, which MIGRATE_OUT forbids asleep)
        if ctx.state is ActState.BLOCKED:
            ctx.state = ActState.READY
            self.ready.append(ctx)
            self._emit("act_wake", act=ctx.act_id, reason="sleep")
            self._on_irq()

    def _exit(self, ctx: Activity, code: int) -> Generator:
        yield self.clock.cycles_to_ps(self.EXIT_CY)
        ctx.state = ActState.EXITED
        ctx.exit_code = code
        self._emit("act_exit", act=ctx.act_id)
        self.acts.pop(ctx.act_id, None)
        self.vdtu.tlb.invalidate(ctx.act_id)
        yield from self._send_as_tilemux(
            EP_TMUX_SEP, NotifyMsg(TmuxNotify.EXIT,
                                   {"act_id": ctx.act_id, "code": code}),
            NotifyMsg.SIZE)
        self.stats.counter("tilemux/exits").add()

    # ------------------------------------------------------------- translation

    def _translate(self, ctx: Activity, virt: int, perm: Perm) -> Generator:
        """Fill the vDTU TLB from the page table, or start a page fault.

        Returns (ok, blocked_on_pager).
        """
        ppage = ctx.addrspace.lookup(virt, perm)
        if ppage is not None:
            yield from self.vdtu.priv_insert_tlb(
                ctx.act_id, virt // PAGE_SIZE, ppage, self._page_perm(ctx, virt))
            self.stats.counter("tilemux/tlb_fills").add()
            return True, False
        region = ctx.addrspace.lazy_region_of(virt)
        if region is not None and ctx.pager_session is not None:
            yield from self._start_pagefault(ctx, virt, perm)
            return True, True
        if region is not None:
            raise PageFault(ctx.act_id, virt, perm)
        return False, False

    @staticmethod
    def _page_perm(ctx: Activity, virt: int) -> Perm:
        entry = ctx.addrspace._pages.get(virt // PAGE_SIZE)
        return entry[1] if entry else Perm.RW

    def _start_pagefault(self, ctx: Activity, virt: int, perm: Perm) -> Generator:
        ctx.state = ActState.BLOCKED_PF
        req = RpcMsg(op=PagerOp.PAGEFAULT,
                     args={"act_id": ctx.act_id, "virt": virt, "perm": perm})
        self._pf_pending[req.seq] = ctx
        yield from self._send_as_tilemux(EP_TMUX_PAGER, req, RpcMsg.SIZE,
                                         reply_ep=EP_TMUX_REPLY)
        self.stats.counter("tilemux/pagefaults").add()

    # -------------------------------------------------- TileMux's own messaging

    def _send_as_tilemux(self, ep: int, data: Any, size: int,
                         reply_ep: Optional[int] = None) -> Generator:
        """Switch to TileMux's own activity id, send, switch back (4.2).

        CUR_ACT is restored after a send that returned or raised, but
        not when the generator is closed (``GeneratorExit`` is no
        ``Exception``): a closed generator must not yield."""
        prev_act, _ = yield from self._switch_vdtu(ACT_TILEMUX, self._own_msgs)
        try:
            yield from self.vdtu.cmd_send(ep, data, size, reply_ep=reply_ep)
        except Exception:
            yield from self._restore_act(prev_act)
            raise
        yield from self._restore_act(prev_act)

    def _restore_act(self, act_id: int) -> Generator:
        """Switch CUR_ACT back after TileMux used its own endpoints."""
        msgs = 0
        if act_id not in (ACT_TILEMUX, ACT_INVALID):
            act = self.acts.get(act_id)
            if act is None:
                act_id = ACT_INVALID
            else:
                msgs, act.msgs = act.msgs, 0
        elif act_id == ACT_TILEMUX:
            msgs = self._own_msgs
        yield from self._switch_vdtu(act_id, msgs)

    # -------------------------------------------------------- core requests

    def _handle_core_reqs(self) -> Generator:
        yield self.clock.cycles_to_ps(self.costs.irq_entry)
        service_own = False
        while True:
            req = yield from self.vdtu.priv_fetch_core_req()
            if req is None:
                break
            yield self.clock.cycles_to_ps(self.costs.core_req_handle)
            yield from self.vdtu.priv_ack_core_req()
            if req.act == ACT_TILEMUX:
                service_own = True
                continue
            act = self.acts.get(req.act)
            if act is None:
                continue  # raced with exit
            to_cur = self.current is not None and act is self.current
            if to_cur:
                # the deposit raced with an activity switch: the message
                # predates the switch, so account it to the live CUR_ACT
                # (the hardware's atomic switch has the same net effect)
                self.vdtu.cur_msgs += 1
            else:
                act.msgs += 1
            self._emit("core_req_route", act=req.act, to_cur=to_cur,
                       count=self.vdtu.cur_msgs if to_cur else act.msgs)
            if act.state is ActState.BLOCKED:
                act.state = ActState.READY
                self.ready.append(act)
                self._emit("act_wake", act=req.act, reason="core_req")
        if self._wake.triggered:
            self._wake = self.sim.event()
        if service_own:
            yield from self._service_own_messages()

    def _service_own_messages(self) -> Generator:
        """Process controller requests and pager replies."""
        prev_act, _ = yield from self._switch_vdtu(ACT_TILEMUX, self._own_msgs)
        while True:
            msg = yield from self.vdtu.cmd_fetch(EP_TMUX_REP)
            if msg is not None:
                yield from self._handle_ctrl_request(msg)
                continue
            reply = yield from self.vdtu.cmd_fetch(EP_TMUX_REPLY)
            if reply is not None:
                yield from self._handle_reply(reply)
                continue
            break
        self._own_msgs = self.vdtu.cur_msgs
        yield from self._restore_act(prev_act)

    def _handle_ctrl_request(self, msg) -> Generator:
        req: TmuxReq = msg.data
        ok, error = True, ""
        if req.op is TmuxOp.CREATE_ACT:
            yield self.clock.cycles_to_ps(self.CREATE_ACT_CY)
            act: Activity = req.args["activity"]
            api = self.api_class(self, act)
            act.api = api  # kept for rebinding on live migration
            act.gen = act.program(api)
            act.state = ActState.READY
            self.acts[act.act_id] = act
            self.ready.append(act)
        elif req.op is TmuxOp.MAP:
            pages = req.args["pages"]
            yield self.clock.cycles_to_ps(self.MAP_BASE_CY
                                    + self.MAP_PER_PAGE_CY * pages)
            act = self.acts.get(req.args["act_id"])
            if act is None:
                ok, error = False, f"no activity {req.args['act_id']}"
            else:
                for i in range(pages):
                    act.addrspace.map_page(req.args["virt_page"] + i,
                                           req.args["phys_page"] + i,
                                           req.args["perm"])
        elif req.op is TmuxOp.UNMAP:
            pages = req.args["pages"]
            yield self.clock.cycles_to_ps(self.MAP_BASE_CY)
            act = self.acts.get(req.args["act_id"])
            if act is not None:
                for i in range(pages):
                    act.addrspace.unmap_page(req.args["virt_page"] + i)
                self.vdtu.tlb.invalidate(act.act_id)
        elif req.op is TmuxOp.KILL_ACT:
            yield self.clock.cycles_to_ps(self.EXIT_CY)
            act = self.acts.pop(req.args["act_id"], None)
            if act is not None:
                act.state = ActState.EXITED
                if act in self.ready:
                    self.ready.remove(act)
                self.vdtu.tlb.invalidate(act.act_id)
        elif req.op is TmuxOp.MIGRATE_OUT:
            # tile-side re-validation is authoritative: the controller's
            # view of our schedule is stale by design (other tile)
            act = self.acts.get(req.args["act_id"])
            if act is None:
                ok, error = False, f"no activity {req.args['act_id']}"
            elif act is not self.current and act.state not in (
                    ActState.READY, ActState.BLOCKED):
                ok, error = False, (f"activity {act.act_id} not migratable "
                                    f"({act.state.value})")
            elif act._sleeping:
                ok, error = False, f"activity {act.act_id} is sleeping"
            else:
                if act is self.current:
                    # we are inside this activity's dispatch interrupt
                    # window (the only place controller requests are
                    # serviced while it runs), i.e. at an op boundary
                    # where preemption is legal: detach cooperatively —
                    # the dispatch loop sees the flag, stashes the
                    # pending resume value and stops driving the
                    # generator without requeueing it
                    act._migrated = True
                    act.state = ActState.READY
                # pack the context: registers plus page-table state
                yield self.clock.cycles_to_ps(
                    self.MIGRATE_BASE_CY
                    + self.MIGRATE_PER_PAGE_CY * act.addrspace.mapped_pages)
                self.acts.pop(act.act_id, None)
                if act in self.ready:
                    self.ready.remove(act)
                if self._last_dispatched is act:
                    self._last_dispatched = None
                self.vdtu.tlb.invalidate(act.act_id)
                self._emit("migrate_out", act=act.act_id)
                self.stats.counter(
                    f"tile{self.tile_id}/sched/migrations_out").add()
        elif req.op is TmuxOp.MIGRATE_IN:
            act = req.args["activity"]
            yield self.clock.cycles_to_ps(
                self.MIGRATE_BASE_CY
                + self.MIGRATE_PER_PAGE_CY * act.addrspace.mapped_pages)
            act.tile_id = self.tile_id
            if act.api is not None:
                act.api.rebind(self)
            # The controller recomputed the unread count from the source
            # endpoint snapshot, but the EPs went live here (WRITE_EPS)
            # before this request arrived: a message deposited in that
            # window raised a core request we dropped (unknown act) and
            # is missing from the snapshot.  Count unread straight from
            # the EP table (a privileged tile-local read), minus the
            # core requests still queued for this act — those drain
            # after registration and increment the count then.
            unread = sum(ep.unread for ep in self.vdtu.eps
                         if ep.kind is EndpointKind.RECEIVE
                         and ep.act == act.act_id)
            queued = sum(1 for cr in self.vdtu._core_reqs
                         if cr.act == act.act_id)
            act.msgs = max(0, unread - queued)
            self.acts[act.act_id] = act
            if act.state is ActState.BLOCKED and act.msgs > 0:
                act.state = ActState.READY
            if act.state is ActState.READY and act not in self.ready:
                self.ready.append(act)
            self._emit("migrate_in", act=act.act_id)
            self.stats.counter(
                f"tile{self.tile_id}/sched/migrations_in").add()
        else:
            ok, error = False, f"unknown op {req.op}"
        yield from self.vdtu.cmd_reply(EP_TMUX_REP, msg,
                                       TmuxReply(req.seq, ok, error),
                                       TmuxReply.SIZE)

    def _handle_reply(self, msg) -> Generator:
        reply: RpcReply = msg.data
        yield from self.vdtu.cmd_ack(EP_TMUX_REPLY, msg)
        ctx = self._pf_pending.pop(reply.seq, None)
        if ctx is None:
            return
        if not reply.ok:
            raise PageFault(ctx.act_id, reply.value or 0, Perm.R)
        if ctx.state is ActState.BLOCKED_PF:
            ctx.state = ActState.READY
            self.ready.append(ctx)
            self._emit("act_wake", act=ctx.act_id, reason="pagefault")
