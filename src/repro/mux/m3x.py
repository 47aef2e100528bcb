"""The M3x baseline: remote tile multiplexing by the controller.

M3x (ATC '19, section 2.2 of the M3v paper) multiplexes every tile with
the same mechanism: the *controller* makes all scheduling decisions and
performs all context switches remotely.  The DTU is not virtualized —
only the endpoints of the currently running activity are loaded, so

* switching contexts requires the controller to save and restore the
  DTU endpoint state over the external interface (cost per endpoint),
* a message for a non-running activity bounces (``RECV_GONE``) and must
  take the *slow path*: the sender forwards it to the controller, which
  deposits it into the saved endpoint state and schedules the
  recipient (section 2.2, 3.9).

Because the single-threaded controller serializes every switch in the
system, M3x does not scale with the number of multiplexed tiles — the
effect Figure 9 quantifies.

The tile-local component here (:class:`M3xMux`) models M3x's thin
"RCTMux": it runs whatever context the controller tells it to, saves
and restores register state on command, and reports blocking.  It makes
no scheduling decisions of its own.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.dtu import DtuError, DtuFault
from repro.dtu.dtu import Dtu, ExtOp
from repro.dtu.endpoints import EndpointKind
from repro.dtu.message import Message
from repro.kernel.activity import Activity, ActState
from repro.kernel.controller import Controller, SyscallError
from repro.kernel.protocol import (
    EP_NOTIFY,
    EP_TMUX_REP,
    EP_TMUX_SEP,
    NotifyMsg,
    TmuxNotify,
    TmuxOp,
    TmuxReply,
    TmuxReq,
)
from repro.mux.api import ActivityApi, TmCall
from repro.sim.engine import Event
from repro.tiles.costs import CoreCosts

# enum members read per operation in _dispatch and _tmcall, bound once:
# on CPython 3.10/3.11 an Enum class-attribute read goes through
# EnumType.__getattr__ (~130 ns against ~10 ns for a global)
_RECEIVE = EndpointKind.RECEIVE
_READY = ActState.READY
_RUNNING = ActState.RUNNING
_BLOCKED = ActState.BLOCKED

#: owner of the sleep timers, which the profilers bill to this mux
_WAKE_TIMER = "_wake_after"


class M3xActivityApi(ActivityApi):
    """M3x flavour of the library: slow-path fallback on sends/replies.

    Transparent multiplexing does *not* hold on M3x (section 3.9): when
    the recipient is not running, the library must detect the error and
    route the message through the controller.  The retry loops are
    :class:`ActivityApi`'s; only the forwarding is M3x's.
    """

    def _forward_send(self, fault: DtuFault, ep: int, data: Any, size: int,
                      reply_ep: Optional[int], seq) -> Generator:
        # the slow path rides the protected control network, so it needs
        # no retransmission of its own.  The controller dedups against
        # the saved endpoint state, so forwarding a retransmission is
        # safe.  A held credit (earlier copy's outcome unknown) keeps its
        # wire linkage: the forwarded deposit carries our send EP, and
        # whoever acks the surviving copy returns the credit over the NoC.
        held = seq is not None and seq in self.vdtu._credit_held
        send_ep = self.vdtu.eps[ep]
        yield from self.syscall_forward({
            "dst_tile": send_ep.dst_tile,
            "dst_ep": send_ep.dst_ep,
            "label": send_ep.label,
            "data": data,
            "size": size,
            "src_tile": self.vdtu.tile,
            "reply_ep": reply_ep,
            "seq": seq,
            "src_credit_ep": ep if held else None,
        })
        self.mux.stats.counter("m3x/slow_paths").add()
        if held:
            self.vdtu._credit_held.discard(seq)

    def _forward_reply(self, fault: DtuFault, msg: Message, data: Any,
                       size: int, seq) -> Generator:
        # bounced reply: forward it, handing the requester's send credit
        # along so the controller restores what the wire reply would
        # have returned (the kernel half of the slow path).
        # Retransmissions are safe: the controller dedups against the
        # saved endpoint state and skips the credit on duplicates.
        yield from self.syscall_forward({
            "dst_tile": msg.src_tile,
            "dst_ep": msg.reply_ep,
            "label": msg.label,
            "data": data,
            "size": size,
            "src_tile": self.vdtu.tile,
            "reply_ep": None,
            "is_reply": True,
            "credit_ep": msg.reply_credit,
            "seq": seq,
        })
        self.mux.stats.counter("m3x/slow_paths").add()

    def syscall_forward(self, args: Dict[str, Any]) -> Generator:
        """FORWARD is a raw syscall message (we cannot recurse into
        ``syscall`` because its reply handling uses recv)."""
        from repro.kernel.protocol import Syscall, SyscallMsg

        yield self._syscall_ps
        msg = SyscallMsg(Syscall.FORWARD, args)
        yield from self.vdtu.cmd_send(self.act.sysc_sep, msg, SyscallMsg.SIZE,
                                      reply_ep=self.act.sysc_rep)
        reply_msg = yield from self.recv(self.act.sysc_rep)
        yield from self.ack(self.act.sysc_rep, reply_msg)
        if not reply_msg.data.ok:
            raise RuntimeError(f"forward failed: {reply_msg.data.error}")


class M3xMux:
    """RCTMux: executes the context chosen by the controller."""

    SAVE_CY = 1200      # save register and FPU state on request
    RESUME_CY = 1200    # restore register state, warm up caches
    SCAN_EP_CY = 25     # per-endpoint unread scan (no CUR_ACT counter!)

    def __init__(self, sim, tile_id: int, dtu: Dtu, costs: CoreCosts):
        self.sim = sim
        self.tile_id = tile_id
        self.vdtu = dtu  # name kept for ActivityApi compatibility
        self.costs = costs
        self.clock = costs.clock
        self.stats = sim.stats
        # hot-path charge constants: the clock never changes after init,
        # and cycles_to_ps is linear, so these are exact
        self._tmcall_enter_ps = self.clock.cycles_to_ps(
            costs.trap_enter + costs.tmcall_dispatch)
        self._trap_exit_ps = self.clock.cycles_to_ps(costs.trap_exit)
        self._scan_ep_ps = self.clock.cycles_to_ps(self.SCAN_EP_CY)

        self.recovery = None  # RecoveryPolicy once enable_recovery() ran
        self.acts: Dict[int, Activity] = {}
        self.current: Optional[Activity] = None
        self._resume_next: Optional[int] = None
        self._wake_pending: list = []   # act ids whose sleep timer fired
                                        # while they were descheduled
        self._wake: Event = sim.event()
        self._wake_waiting = False   # main loop is parked on _wake
        self._poll_waiters: list = []
        self._msg_latch = False
        dtu.msg_callback = self._on_msg
        self._proc = sim.process(self._main_loop(), name=f"m3xmux{tile_id}")

    # the library's 'are others ready' hint: RCTMux only knows residency
    def others_ready(self, act: Activity) -> bool:
        return len(self.acts) > 1

    def _on_msg(self, ep_id: int) -> None:
        self._msg_latch = True
        # only schedule a wake event if the main loop is actually parked:
        # the latch alone covers deposits that land while it runs, and an
        # un-waited wake pop is pure event-queue load with no effect
        if self._wake_waiting and not self._wake.triggered:
            self._wake.succeed()
        waiters, self._poll_waiters = self._poll_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def poll_signal(self):
        """Poll-loop signal (see TileMux.poll_signal): fires on any
        deposit — with the M3x DTU only the current activity's (and
        RCTMux's) endpoints are installed, so any arrival is relevant."""
        ev = self.sim.event()
        if any(ep.kind is EndpointKind.RECEIVE and ep.unread > 0
               for ep in self.vdtu.eps):
            ev.succeed()
            return ev
        self._poll_waiters.append(ev)
        return ev

    def _notify_ctrl(self, note: NotifyMsg) -> Generator:
        """Send a notification, riding out notify-credit exhaustion.

        The notify pool (8 credits) can transiently run dry when
        activities block in bursts faster than the controller drains;
        credits always come back (the control network is reliable), so
        waiting is safe — but only if we keep answering controller
        requests meanwhile.  The controller may be blocked in a
        ``tmux_request`` to this very tile while our un-acked notifies
        hold all the credits; refusing to service it here would
        deadlock the whole machine."""
        while True:
            try:
                yield from self.vdtu.cmd_send(EP_TMUX_SEP, note,
                                              NotifyMsg.SIZE)
                return
            except DtuFault as fault:
                if fault.error is not DtuError.MISSING_CREDITS:
                    raise
                yield from self._service_ctrl_requests()
                yield 2_000_000  # re-poll in 2 us

    def _emit(self, kind: str, **fields) -> None:
        """Emit a trace event of this tile.  Callers check ``sim.tracer``
        first, so no fields are packed while tracing is off."""
        self.sim.tracer.emit(self.sim, kind, tile=self.tile_id, **fields)

    # ------------------------------------------------------------- main loop

    def _main_loop(self) -> Generator:
        while True:
            yield from self._service_ctrl_requests()
            while self._wake_pending:
                act_id = self._wake_pending.pop(0)
                act = self.acts.get(act_id)
                if act is None or act is self.current:
                    continue
                yield from self._notify_ctrl(
                    NotifyMsg(TmuxNotify.WAKEUP, {"tile": self.tile_id,
                                                  "act_id": act_id}))
                self.stats.counter("m3x/wake_notifies").add()
            if self._resume_next is not None:
                nxt = self.acts.get(self._resume_next)
                self._resume_next = None
                if nxt is not None:
                    yield self.clock.cycles_to_ps(self.RESUME_CY)
                    nxt.state = ActState.READY
                    self.current = nxt
            ctx = self.current
            if ctx is None or ctx.state not in (ActState.READY, ActState.RUNNING):
                # check whether a message arrived for the (blocked) current
                if ctx is not None and (yield from self._has_unread(ctx)):
                    ctx.state = ActState.READY
                    if self.sim.tracer is not None:
                        self._emit("act_wake", act=ctx.act_id, reason="scan")
                    continue
                if self._msg_latch:
                    self._msg_latch = False  # re-scan: a deposit raced us
                    continue
                if self._wake.triggered:
                    self._wake = self.sim.event()
                self._wake_waiting = True
                yield self._wake
                self._wake_waiting = False
                self._msg_latch = False
                continue
            yield from self._dispatch(ctx)

    def _has_unread(self, ctx: Activity) -> Generator:
        """Scan the installed receive endpoints — M3x's DTU has no
        per-activity message counter, hence the per-EP iteration the
        paper calls undesirable (section 3.7)."""
        eps = self.vdtu.eps
        count = 0
        for i in self.vdtu.recv_ep_indices():
            count += 1
            if eps[i].unread > 0:
                break
        yield self._scan_ep_ps * max(1, count)
        # re-check after the charge: a message may have landed meanwhile
        # (and the EP set itself may have been reconfigured)
        for i in self.vdtu.recv_ep_indices():
            if eps[i].unread > 0:
                return True
        return False

    def _dispatch(self, ctx: Activity) -> Generator:
        ctx.state = _RUNNING
        run_start = self.sim.now
        inject_val = ctx._resume_value
        ctx._resume_value = None
        keep = True
        while keep:
            # controller requests interleave at op boundaries
            ep = self.vdtu.eps[EP_TMUX_REP]
            if ep.kind is _RECEIVE and ep.unread > 0:
                yield from self._service_ctrl_requests()
                if self.current is not ctx or ctx.state is not _RUNNING:
                    ctx._resume_value = inject_val  # re-inject after restore
                    break
            try:
                item = ctx.gen.send(inject_val)
            except StopIteration:
                yield from self._exit(ctx, 0)
                break
            inject_val = None
            if type(item) is int or isinstance(item, Event):
                # ints are the engine's timeout fast path; forward as-is
                inject_val = yield item
            elif isinstance(item, TmCall):
                inject_val, keep = yield from self._tmcall(ctx, item)
            elif item is None:
                pass
            else:
                raise RuntimeError(f"activity {ctx.name} yielded {item!r}")
        ctx.user_ps += self.sim.now - run_start

    # ----------------------------------------------------------------- TMCalls

    def _tmcall(self, ctx: Activity, call: TmCall) -> Generator:
        yield self._tmcall_enter_ps
        op = call.op
        if op == "block":
            if (yield from self._has_unread(ctx)):
                yield self._trap_exit_ps
                return False, True
            ctx.state = _BLOCKED
            if self.sim.tracer is not None:
                self._emit("act_block", act=ctx.act_id)
            if len(self.acts) > 1:
                # tell the controller so it can schedule someone else
                yield from self._notify_ctrl(
                    NotifyMsg(TmuxNotify.BLOCKED, {"tile": self.tile_id,
                                                   "act_id": ctx.act_id}))
                self.stats.counter("m3x/block_notifies").add()
            return None, False
        if op == "yield":
            ctx.state = _READY
            return None, True  # single-context view: nothing else to run here
        if op == "sleep":
            ctx.state = _BLOCKED
            if self.sim.tracer is not None:
                self._emit("act_block", act=ctx.act_id)
            self.sim.timer(max(0, call.args["ps"]), _WAKE_TIMER,
                           self._wake_after, ctx)
            if len(self.acts) > 1:
                # a nap is a block as far as the controller is concerned:
                # without the notify it would never install the
                # co-resident activity for the duration
                yield from self._notify_ctrl(
                    NotifyMsg(TmuxNotify.BLOCKED, {"tile": self.tile_id,
                                                   "act_id": ctx.act_id}))
                self.stats.counter("m3x/block_notifies").add()
            return None, False
        if op == "exit":
            yield from self._exit(ctx, call.args.get("code", 0))
            return None, False
        if op == "translate":
            # M3x's gem5 DTU ran physically addressed in our benchmarks
            yield self._trap_exit_ps
            return True, True
        raise RuntimeError(f"unknown TMCall {op!r}")

    def _wake_after(self, ctx: Activity) -> None:
        if ctx.state is ActState.BLOCKED:
            ctx.state = ActState.READY
            if self.sim.tracer is not None:
                self._emit("act_wake", act=ctx.act_id, reason="sleep")
            if self.current is not ctx and len(self.acts) > 1:
                # descheduled while napping: only the controller can
                # reinstall it, and only RCTMux knows the timer fired —
                # queue a WAKEUP notify for the main loop to send
                self._wake_pending.append(ctx.act_id)
            self._on_msg(-1)

    def _exit(self, ctx: Activity, code: int) -> Generator:
        yield self.clock.cycles_to_ps(400)
        ctx.state = ActState.EXITED
        ctx.exit_code = code
        if self.sim.tracer is not None:
            self._emit("act_exit", act=ctx.act_id)
        self.acts.pop(ctx.act_id, None)
        if self.current is ctx:
            self.current = None
        yield from self._notify_ctrl(
            NotifyMsg(TmuxNotify.EXIT, {"act_id": ctx.act_id, "code": code}))

    # ------------------------------------------------------ controller requests

    def _service_ctrl_requests(self) -> Generator:
        while True:
            msg = yield from self.vdtu.cmd_fetch(EP_TMUX_REP)
            if msg is None:
                return
            req: TmuxReq = msg.data
            ok, error = True, ""
            if req.op is TmuxOp.CREATE_ACT:
                yield self.clock.cycles_to_ps(2000)
                act: Activity = req.args["activity"]
                api = M3xActivityApi(self, act)
                act.gen = act.program(api)
                act.state = ActState.READY
                self.acts[act.act_id] = act
            elif req.op is TmuxOp.M3X_SAVE:
                yield self.clock.cycles_to_ps(self.SAVE_CY)
                act = self.acts.get(req.args["act_id"])
                if act is not None and act.state is ActState.RUNNING:
                    act.state = ActState.READY
                if self.current is act:
                    self.current = None
                self.stats.counter("m3x/saves").add()
            elif req.op is TmuxOp.M3X_RESUME:
                self._resume_next = req.args["act_id"]
                self.stats.counter("m3x/resumes").add()
            else:
                ok, error = False, f"unsupported op {req.op} on M3x"
            yield from self.vdtu.cmd_reply(EP_TMUX_REP, msg,
                                           TmuxReply(req.seq, ok, error),
                                           TmuxReply.SIZE)


class M3xController(Controller):
    """Controller with M3x's remote-multiplexing machinery.

    Per tile it keeps the scheduling state (current + ready list) and
    the endpoint snapshots of descheduled activities; FORWARD deposits
    messages into those snapshots (the slow path).
    """

    M3X_SWITCH_CY = 9500   # scheduling decision, capability checks,
                           # receive-buffer transfer bookkeeping
    EPS_PER_ACT = 16       # endpoint set saved/restored per context

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tile_current: Dict[int, Optional[int]] = {}
        self._tile_ready: Dict[int, List[int]] = {}
        self._snapshots: Dict[int, Dict[int, Any]] = {}   # act -> {ep: Endpoint}
        self._act_eps: Dict[int, List[int]] = {}          # act -> ep ids
        self._rgate_owner: Dict[tuple, int] = {}          # (tile, ep) -> act

    # -------------------------------------------------------------- residency

    def register_act_ep(self, act: Activity, ep_id: int,
                        endpoint=None, rgate: bool = False) -> None:
        self._act_eps.setdefault(act.act_id, []).append(ep_id)
        if rgate:
            self._rgate_owner[(act.tile_id, ep_id)] = act.act_id

    def _is_current(self, act: Activity) -> bool:
        return self._tile_current.get(act.tile_id) == act.act_id

    # ------------------------------------------------------------ notifications

    def _handle_notify(self, msg) -> Generator:
        note: NotifyMsg = msg.data
        if note.kind is TmuxNotify.BLOCKED:
            yield self._charge_ps(self.SYSCALL_BASE_CY)
            yield from self.dtu.cmd_ack(EP_NOTIFY, msg)
            yield from self._schedule_tile(note.args["tile"])
            return
        if note.kind is TmuxNotify.WAKEUP:
            yield self._charge_ps(self.SYSCALL_BASE_CY)
            yield from self.dtu.cmd_ack(EP_NOTIFY, msg)
            act = self.acts.get(note.args["act_id"])
            if act is not None:
                if self._blocked(act):
                    act.state = ActState.READY
                    self._emit_wake(act, "wakeup")
                ready = self._tile_ready.setdefault(act.tile_id, [])
                if not self._is_current(act) and act.act_id not in ready:
                    ready.append(act.act_id)
                yield from self._schedule_tile(act.tile_id)
            return
        tile = None
        if note.kind is TmuxNotify.EXIT:
            act = self.acts.get(note.args["act_id"])
            if act is not None:
                tile = act.tile_id
                if self._tile_current.get(tile) == act.act_id:
                    self._tile_current[tile] = None
                ready = self._tile_ready.get(tile, [])
                if act.act_id in ready:
                    ready.remove(act.act_id)
                self._snapshots.pop(act.act_id, None)
        yield from super()._handle_notify(msg)
        if tile is not None:
            yield from self._schedule_tile(tile)

    def _schedule_tile(self, tile: int) -> Generator:
        """Pick and install the next ready activity on ``tile``."""
        ready = self._tile_ready.setdefault(tile, [])
        if not ready:
            return
        yield self._charge_ps(self.M3X_SWITCH_CY)
        cur_id = self._tile_current.get(tile)
        if cur_id is not None:
            cur = self.acts[cur_id]
            if cur.state is ActState.RUNNING:
                return  # mid-dispatch; it will notify when it blocks
            yield from self._save_context(cur)
            if not self._blocked(cur) and cur.act_id not in ready:
                # round-robin a runnable current instead of declining the
                # switch: a napper whose timer beats the (credit-delayed)
                # BLOCKED notify would otherwise starve the ready queue
                # forever — it re-wakes before every scheduling decision
                ready.append(cur.act_id)
        nxt = self.acts[ready.pop(0)]
        yield from self._restore_context(nxt)
        self.stats.counter("m3x/switches").add()

    @staticmethod
    def _blocked(act: Activity) -> bool:
        return act.state in (ActState.BLOCKED, ActState.BLOCKED_PF)

    def _emit_wake(self, act: Activity, reason: str) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "act_wake", tile=act.tile_id,
                        act=act.act_id, reason=reason)

    def _save_context(self, act: Activity) -> Generator:
        """Save registers (via RCTMux) and endpoints (via ext IF)."""
        tile = act.tile_id
        yield from self.tmux_request(tile, TmuxOp.M3X_SAVE,
                                     {"act_id": act.act_id})
        ep_ids = self._act_eps.get(act.act_id, [])
        if ep_ids:
            # atomic save-and-invalidate: a separate read + blank write
            # would lose messages deposited between the two requests
            saved = yield from self._ext(tile, ExtOp.SWAP_EPS,
                                         {"ep_ids": ep_ids})
            self._snapshots[act.act_id] = saved
            # a message may have raced in just before the swap: the
            # saved activity is runnable and must requeue, or the
            # captured message would never wake anyone
            if any(ep.kind is EndpointKind.RECEIVE and ep.unread > 0
                   for ep in saved.values()):
                if self._blocked(act):
                    act.state = ActState.READY
                    self._emit_wake(act, "save_scan")
                ready = self._tile_ready.setdefault(tile, [])
                if act.act_id not in ready:
                    ready.append(act.act_id)
        if not self._blocked(act) and act.state is not ActState.EXITED:
            # the sleep timer fired between the BLOCKED notify and the
            # save landing (the activity state is shared with RCTMux, so
            # the post-save check sees it): runnable, must requeue, or it
            # would sit READY in a snapshot nobody ever restores
            ready = self._tile_ready.setdefault(tile, [])
            if act.act_id not in ready:
                ready.append(act.act_id)
        self._tile_current[tile] = None

    def _restore_context(self, act: Activity) -> Generator:
        tile = act.tile_id
        snapshot = self._snapshots.pop(act.act_id, None)
        if snapshot:
            yield from self._ext(tile, ExtOp.WRITE_EPS, {"eps": snapshot})
        self._tile_current[tile] = act.act_id
        if self._blocked(act):
            act.state = ActState.READY
            self._emit_wake(act, "restore")
        yield from self.tmux_request(tile, TmuxOp.M3X_RESUME,
                                     {"act_id": act.act_id})

    def _send_syscall_reply(self, caller: int, msg, reply) -> Generator:
        """Reply to a syscall; if the caller was descheduled while the
        call was in flight, deposit the reply into its saved endpoint
        state instead (the kernel-side half of the slow path)."""
        dst_ep = msg.reply_ep
        try:
            yield from super()._send_syscall_reply(caller, msg, reply)
        except DtuFault as fault:
            if fault.error is not DtuError.RECV_GONE:
                raise
            from repro.kernel.protocol import SyscallReply
            snapshot = self._snapshots.get(caller)
            if snapshot is None or dst_ep not in snapshot:
                raise
            ep = snapshot[dst_ep]
            if ep.kind is not EndpointKind.RECEIVE or ep.free_slots == 0:
                raise
            ep.deposit(Message(label=msg.label, data=reply,
                               size=SyscallReply.SIZE,
                               src_tile=self.tile_id, reply_ep=None,
                               credit_ep=None, credited=True))
            act = self.acts.get(caller)
            # the wire reply would have returned the syscall send credit;
            # restore it in the saved endpoint state instead
            if act is not None and act.sysc_sep in snapshot:
                sep = snapshot[act.sysc_sep]
                if sep.kind is EndpointKind.SEND and not sep.has_credits:
                    sep.return_credit()
            if act is not None and self._blocked(act):
                act.state = ActState.READY
                self._emit_wake(act, "syscall_reply")
                ready = self._tile_ready.setdefault(act.tile_id, [])
                if not self._is_current(act) and act.act_id not in ready:
                    ready.append(act.act_id)
                yield from self._schedule_tile(act.tile_id)

    # ---------------------------------------------------------- spawning/wiring

    def spawn(self, name: str, tile_id: int, program, **kwargs) -> Generator:
        act = yield from super().spawn(name, tile_id, program, **kwargs)
        self.register_act_ep(act, act.sysc_sep)
        self.register_act_ep(act, act.sysc_rep, rgate=True)
        if self._tile_current.get(tile_id) is None:
            self._tile_current[tile_id] = act.act_id
            yield from self.tmux_request(tile_id, TmuxOp.M3X_RESUME,
                                         {"act_id": act.act_id})
        else:
            # not scheduled yet: its endpoints live in the snapshot
            yield from self._absorb_eps(act)
            self._tile_ready.setdefault(tile_id, []).append(act.act_id)
        return act

    def wire_channel(self, src_act: Activity, dst_act: Activity,
                     **kwargs) -> Generator:
        send_ep, recv_ep, reply_ep = yield from super().wire_channel(
            src_act, dst_act, **kwargs)
        self.register_act_ep(dst_act, recv_ep, rgate=True)
        self.register_act_ep(src_act, send_ep)
        self.register_act_ep(src_act, reply_ep, rgate=True)
        for act in (src_act, dst_act):
            if not self._is_current(act):
                yield from self._absorb_eps(act)
        return send_ep, recv_ep, reply_ep

    def finalize_eps(self, act: Activity) -> Generator:
        if not self._is_current(act):
            yield from self._absorb_eps(act)

    def _sys_activate(self, caller: int, args) -> Generator:
        ep_id = yield from super()._sys_activate(caller, args)
        act = self.acts[caller]
        eps = self._act_eps.setdefault(caller, [])
        if ep_id not in eps:
            from repro.kernel.caps import CapKind
            cap = self._table(caller).get(args["sel"])
            self.register_act_ep(act, ep_id,
                                 rgate=cap.kind is CapKind.RGATE)
        return ep_id

    def _install_ep(self, act: Activity, ep_id: int, endpoint) -> Generator:
        """An activity may get descheduled while its syscall is queued;
        in that case the endpoint goes into the saved state, exactly as
        the M3x kernel updates suspended contexts."""
        if self._is_current(act):
            yield from super()._install_ep(act, ep_id, endpoint)
            return
        yield self._charge_ps(self.EXT_REQ_CY)
        self._snapshots.setdefault(act.act_id, {})[ep_id] = endpoint

    def _absorb_eps(self, act: Activity) -> Generator:
        """Move an inactive activity's installed endpoints into its
        snapshot (they were just configured on the tile)."""
        ep_ids = self._act_eps.get(act.act_id, [])
        if not ep_ids:
            return
        saved = yield from self._ext(act.tile_id, ExtOp.SWAP_EPS,
                                     {"ep_ids": ep_ids})
        snapshot = self._snapshots.setdefault(act.act_id, {})
        for ep_id, ep in saved.items():
            if ep.kind is not EndpointKind.INVALID:
                snapshot[ep_id] = ep

    # --------------------------------------------------------------- slow path

    def _sys_forward(self, caller: int, args) -> Generator:
        """Deliver a message to a non-running activity (section 2.2):
        store it in the saved endpoint state and schedule the recipient."""
        yield self._charge_ps(self.FORWARD_CY)
        dst = self._rgate_owner.get((args["dst_tile"], args["dst_ep"]))
        if dst is None:
            raise SyscallError("forward: unknown destination endpoint")
        act = self.acts[dst]
        snapshot = self._snapshots.get(dst)
        seq = args.get("seq")
        if snapshot is not None and args["dst_ep"] in snapshot:
            ep = snapshot[args["dst_ep"]]
            if ep.kind is not EndpointKind.RECEIVE:
                raise SyscallError("forward: receive buffer unavailable")
            if seq is not None and ep.is_duplicate(*seq):
                # retransmitted copy of a message the endpoint already
                # holds (delivered on the wire before the save, or by an
                # earlier forward): deposit nothing, credit nothing —
                # the surviving copy owns both
                self.stats.counter("ctrl/forward_dedups").add()
            else:
                if ep.free_slots == 0:
                    raise SyscallError("forward: receive buffer unavailable")
                src_credit = args.get("src_credit_ep")
                ep.deposit(Message(label=args["label"], data=args["data"],
                                   size=args["size"],
                                   src_tile=args["src_tile"],
                                   reply_ep=args.get("reply_ep"),
                                   credit_ep=src_credit,
                                   credited=(args.get("is_reply", False)
                                             or src_credit is None)))
                if seq is not None:
                    ep.record_seq(*seq)
                # a forwarded reply restores the requester's send credit
                # in the saved state (the wire reply would have returned
                # it)
                credit_ep = args.get("credit_ep")
                if credit_ep is not None and credit_ep in snapshot:
                    sep = snapshot[credit_ep]
                    if (sep.kind is EndpointKind.SEND
                            and sep.credits < sep.max_credits):
                        sep.return_credit()
        else:
            # recipient is (or became) current: deliver directly on the wire,
            # preserving the original sender's reply path
            yield from self._deliver_direct(args)
        if self._blocked(act):
            act.state = ActState.READY
            self._emit_wake(act, "forward")
        ready = self._tile_ready.setdefault(act.tile_id, [])
        if (not self._is_current(act)) and act.act_id not in ready:
            ready.append(act.act_id)
        yield from self._schedule_tile(act.tile_id)
        self.stats.counter("ctrl/forwards").add()
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.sample(self.sim, "ctrl/slowpath_q",
                           sum(len(r) for r in self._tile_ready.values()))
        return None

    def _deliver_direct(self, args) -> Generator:
        """Re-inject the forwarded message as if sent by the original
        sender, so the recipient's REPLY finds its way back."""
        from repro.dtu.dtu import WireMsg, _tags
        from repro.noc.packet import Packet, PacketKind

        seq = args.get("seq")
        wire = WireMsg(dst_ep=args["dst_ep"], label=args["label"],
                       data=args["data"], size=args["size"],
                       src_tile=args["src_tile"],
                       reply_ep=args.get("reply_ep"),
                       credit_ep=args.get("src_credit_ep"),
                       is_reply=args.get("is_reply", False),
                       credit_return_ep=args.get("credit_ep"),
                       chan=None if seq is None else seq[0],
                       chan_seq=None if seq is None else seq[1])
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "msg_send", tile=args["src_tile"], ep=-1,
                        dst_tile=args["dst_tile"], dst_ep=args["dst_ep"],
                        size=args["size"], uid=wire.uid,
                        reply=wire.is_reply)
        tag = next(_tags)
        done = self.sim.event()
        self.dtu._pending[tag] = done
        self.dtu.fabric.send(Packet(PacketKind.MSG, src=self.tile_id,
                                    dst=args["dst_tile"], size=args["size"],
                                    payload=wire, tag=tag))
        error = yield done
        if error is not DtuError.NONE:
            raise SyscallError(f"forward delivery failed: {error.value}")
