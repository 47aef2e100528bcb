"""The activity-side library.

Programs are generator functions ``def program(api): ...`` that yield
either simulation events (synchronous stalls: compute, DTU commands) or
:class:`TmCall` markers, which the tile's multiplexer intercepts and
services (block, yield, exit, translate) — the software equivalent of
the ``ecall`` trap (section 3.3).

The library implements the paper's user-level policies:

* blocking receive consults the multiplexer's shared-memory hint and
  only traps when other activities are ready; otherwise it polls the
  vDTU (section 3.7);
* commands that fail with a translation fault trap to TileMux to fill
  the vDTU TLB, then retry (section 3.6);
* transfers are chunked to a single page (section 3.6).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Tuple

from repro.dtu import DtuError, DtuFault, Perm
from repro.dtu.errors import RETRYABLE_ERRORS
from repro.dtu.message import Message
from repro.kernel.activity import PAGE_SIZE
from repro.kernel.protocol import RpcMsg, RpcReply, Syscall, SyscallMsg

# process-global channel ids for the recovery layer's sequence numbering;
# like WireMsg uids they are only compared for identity, never for order
_chans = itertools.count(1)


class TmCall:
    """A trap into the tile multiplexer: ``op`` (block | yield | sleep |
    exit | translate) and the arguments it carries."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Dict[str, Any]) -> None:
        self.op = op
        self.args = args


# neither multiplexer writes to a call, so the argument-free traps are
# one shared instance each
BLOCK = TmCall("block", {})
YIELD = TmCall("yield", {})


class RpcError(Exception):
    """A service RPC or system call returned an error."""


def rendezvous(api, env: Dict, *keys) -> Generator:
    """Wait at boot until the harness has put all ``keys`` in ``env``,
    re-checking each simulated microsecond (a plain delay yield); keys
    are only added, so a poll resumes at the first one still missing."""
    i = 0
    while i < len(keys):
        if keys[i] in env:
            i += 1
        else:
            yield 1_000_000


class ActivityApi:
    """Bound to one activity by the multiplexer at CREATE_ACT time."""

    # default chunk after which long computations hit an op boundary
    COMPUTE_CHUNK_CYCLES = 100_000

    def __init__(self, mux, act):
        self.act = act
        self.rebind(mux)
        # recovery-layer state, allocated lazily so the fault-free path
        # carries no cost: per-endpoint sequence channels + jitter stream
        self._chans: Dict[Any, Tuple[int, itertools.count]] = {}
        self._jitter_rng = None

    def rebind(self, mux) -> None:
        """Bind this api to a tile's multiplexer (again, on migration).

        Live migration moves the activity object (and therefore its
        bound generator, which closed over this api) to a new tile; the
        api's mux/vdtu handles and cost charges must follow.  Recovery
        channel numbering is deliberately preserved — retransmission
        sequence spaces are per logical channel, not per tile.
        """
        self.mux = mux
        self.vdtu = mux.vdtu
        self.sim = mux.sim
        costs = self.costs = mux.costs
        clock = self.clock = costs.clock
        # the library's fixed charges, each yielded as one timeout: every
        # lib_* is positive (CoreCosts checks) and far below
        # COMPUTE_CHUNK_CYCLES, so this is what compute(lib_*) yields,
        # without a generator per call
        self._send_ps = clock.cycles_to_ps(costs.lib_send)
        self._reply_ps = clock.cycles_to_ps(costs.lib_reply)
        self._fetch_ps = clock.cycles_to_ps(costs.lib_fetch)
        self._ack_ps = clock.cycles_to_ps(costs.lib_ack)
        self._poll_ps = clock.cycles_to_ps(costs.lib_poll)
        self._syscall_ps = clock.cycles_to_ps(costs.lib_syscall)

    # ------------------------------------------------- fault recovery plumbing

    @property
    def recovery(self):
        """The tile's recovery policy, or None (fault-free operation)."""
        return getattr(self.mux, "recovery", None)

    def _next_seq(self, key: Any) -> Tuple[int, int]:
        """The (channel, sequence) pair for the next logical message.

        One channel per (api, endpoint) direction; the pair is allocated
        once per *logical* message, so every retransmission of it goes
        out under the same numbers and the receiver can dedup.
        """
        if key not in self._chans:
            self._chans[key] = (next(_chans), itertools.count(1))
        chan, counter = self._chans[key]
        return (chan, next(counter))

    def _recover(self, fault: DtuFault, virt: int, perm: Perm,
                 policy=None, attempt: int = 0) -> Generator:
        """The library's one fault path, entered from a command's
        ``except`` block; the command retries once it returns.

        A translation fault refills the vDTU TLB (section 3.6).  Under
        ``policy``, a retryable fault waits out retransmission backoff
        number ``attempt + 1``, or raises once the retries are spent.
        Anything else re-raises.  Returns the backoffs taken so far.
        """
        if fault.error is DtuError.TRANSLATION_FAULT:
            yield from self.touch(virt, perm)
            return attempt
        if policy is None or fault.error not in RETRYABLE_ERRORS:
            raise fault
        attempt += 1
        if attempt > policy.MAX_RETRIES:
            raise DtuFault(fault.error,
                           f"gave up after {policy.MAX_RETRIES} "
                           f"retransmissions ({fault.detail})")
        if self._jitter_rng is None:
            self._jitter_rng = policy.jitter_rng(self.mux.tile_id,
                                                 self.act.name)
        self.mux.stats.counter("recovery/retransmits").add()
        delay = policy.backoff_ps(attempt, self._jitter_rng)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.observe(f"tile{self.mux.tile_id}/recovery/backoff_ps",
                            delay)
        yield delay
        return attempt

    # ------------------------------------------------------------- compute

    def compute(self, cycles: int) -> Generator:
        """Burn CPU time, chunked so preemption and IRQs stay timely."""
        remaining = int(cycles)
        while remaining > 0:
            chunk = min(remaining, self.COMPUTE_CHUNK_CYCLES)
            yield self.clock.cycles_to_ps(chunk)
            remaining -= chunk

    def compute_us(self, us: float) -> Generator:
        yield from self.compute(round(self.clock.us_to_cycles(us)))

    # --------------------------------------------------------------- memory

    def alloc_buf(self, size: int) -> int:
        """Allocate a virtual buffer (page aligned)."""
        return self.act.addrspace.alloc_virt(size)

    def touch(self, virt: int, perm: Perm = Perm.RW) -> Generator:
        """Ensure a page is mapped + in the vDTU TLB (may page-fault).

        The TMCall returns True once the TLB is filled, None after a
        page fault was resolved by the pager (retry the translation),
        and False for an unresolvable fault.
        """
        while True:
            ok = yield TmCall("translate", {"virt": virt, "perm": perm})
            if ok:
                return
            if ok is False:
                raise RpcError(f"unresolvable fault at {virt:#x}")

    # -------------------------------------------------------------- messaging

    def send(self, ep: int, data: Any, size: int,
             reply_ep: Optional[int] = None, virt: int = 0) -> Generator:
        """SEND with translation-retry and credit-wait; charges library
        overhead.  Waiting for credits models the library's spin on the
        send endpoint until the consumer acknowledges older messages."""
        yield self._send_ps
        policy = self.recovery
        seq = None if policy is None else self._next_seq(ep)
        attempt = 0
        while True:
            try:
                yield from self.vdtu.cmd_send(ep, data, size,
                                              reply_ep=reply_ep,
                                              virt_addr=virt, seq=seq)
                return
            except DtuFault as fault:
                if fault.error is DtuError.MISSING_CREDITS:
                    if self.mux.others_ready(self.act):
                        yield YIELD
                    else:
                        yield 5_000_000  # re-poll in 5 us
                    yield self._poll_ps
                    continue
                if fault.error is DtuError.RECV_GONE:
                    yield from self._forward_send(fault, ep, data, size,
                                                  reply_ep, seq)
                    return
                attempt = yield from self._recover(fault, virt, Perm.R,
                                                   policy, attempt)

    def send_nowait(self, ep: int, data: Any, size: int,
                    reply_ep: Optional[int] = None,
                    virt: int = 0) -> Generator:
        """SEND that treats credit exhaustion as a signal, not a stall.

        Returns True once the remote DTU stored the message, False when
        the endpoint is out of credits — the consumer has not drained
        older messages, i.e. downstream backpressure.  Overload-aware
        senders (the serving stack's gateways and balancer) use the
        False return to queue, shed, or steer instead of blocking the
        core the way :meth:`send` does.  Translation retries and
        recovery-layer retransmissions behave exactly like ``send``.
        """
        yield self._send_ps
        policy = self.recovery
        seq = None if policy is None else self._next_seq(ep)
        attempt = 0
        while True:
            try:
                yield from self.vdtu.cmd_send(ep, data, size,
                                              reply_ep=reply_ep,
                                              virt_addr=virt, seq=seq)
                return True
            except DtuFault as fault:
                if fault.error is DtuError.MISSING_CREDITS:
                    return False
                if fault.error is DtuError.RECV_GONE:
                    yield from self._forward_send(fault, ep, data, size,
                                                  reply_ep, seq)
                    return True
                attempt = yield from self._recover(fault, virt, Perm.R,
                                                   policy, attempt)

    def _forward_send(self, fault: DtuFault, ep: int, data: Any, size: int,
                      reply_ep: Optional[int], seq) -> Generator:
        """A send bounced (``RECV_GONE``): its recipient is not running.
        The vDTU accepts messages for every resident activity, so on M3v
        this is an error; M3x forwards the message through the
        controller."""
        raise fault

    def _forward_reply(self, fault: DtuFault, msg: Message, data: Any,
                       size: int, seq) -> Generator:
        """A reply bounced (``RECV_GONE``); see :meth:`_forward_send`."""
        raise fault

    def fetch(self, ep: int) -> Generator:
        yield self._fetch_ps
        return (yield from self.vdtu.cmd_fetch(ep))

    def recv(self, ep: int) -> Generator:
        """Blocking receive (section 3.7).

        Polls while no other activity is ready (so blocking would only
        idle the core); traps to TileMux to block otherwise.
        """
        refused = 0
        while True:
            msg = yield from self.fetch(ep)
            if msg is not None:
                return msg
            if self.mux.others_ready(self.act):
                blocked = yield BLOCK
                if blocked is False:
                    # TileMux refused: this activity has unread messages —
                    # but not on *this* endpoint (first refusal may be the
                    # awaited message racing in; re-fetch shows).  Spinning
                    # would burn the whole timeslice, so yield the core.
                    refused += 1
                    if refused >= 2:
                        yield YIELD
                        refused = 0
            else:
                # poll the vDTU (3.7): the core spins on CUR_ACT; waiting
                # on the poll signal models continuous polling without
                # simulating every spin iteration
                yield self.mux.poll_signal()
                yield self._poll_ps

    def reply(self, ep: int, msg: Message, data: Any, size: int,
              virt: int = 0) -> Generator:
        yield self._reply_ps
        policy = self.recovery
        seq = None if policy is None else self._next_seq(("reply", ep))
        attempt = 0
        while True:
            try:
                yield from self.vdtu.cmd_reply(ep, msg, data, size,
                                               virt_addr=virt, seq=seq)
                return
            except DtuFault as fault:
                if fault.error is DtuError.RECV_GONE:
                    yield from self._forward_reply(fault, msg, data, size,
                                                   seq)
                    return
                attempt = yield from self._recover(fault, virt, Perm.R,
                                                   policy, attempt)

    def ack(self, ep: int, msg: Message) -> Generator:
        yield self._ack_ps
        yield from self.vdtu.cmd_ack(ep, msg)

    def call(self, send_ep: int, reply_ep: int, data: Any, size: int) -> Generator:
        """RPC: send, await the reply, ack it; returns the reply payload."""
        yield from self.send(send_ep, data, size, reply_ep=reply_ep)
        msg = yield from self.recv(reply_ep)
        yield from self.ack(reply_ep, msg)
        return msg.data

    def rpc(self, send_ep: int, reply_ep: int, op: Any,
            args: Optional[Dict[str, Any]] = None,
            size: int = RpcMsg.SIZE) -> Generator:
        """Service RPC with error decoding; returns the reply value."""
        req = RpcMsg(op=op, args=args or {})
        reply: RpcReply = yield from self.call(send_ep, reply_ep, req, size)
        if not reply.ok:
            raise RpcError(f"{op}: {reply.error}")
        return reply.value

    # ------------------------------------------------------------ memory gates

    def read(self, ep: int, offset: int, size: int, virt: int = 0) -> Generator:
        """READ via a memory endpoint, chunked to single pages."""
        chunks = []
        done = 0
        while done < size:
            chunk = min(PAGE_SIZE, size - done)
            while True:
                try:
                    data = yield from self.vdtu.cmd_read(
                        ep, offset + done, chunk, virt_addr=virt)
                    break
                except DtuFault as fault:
                    yield from self._recover(fault, virt, Perm.W)
            chunks.append(data)
            done += chunk
        return b"".join(chunks)

    def write(self, ep: int, offset: int, data: bytes, virt: int = 0) -> Generator:
        """WRITE via a memory endpoint, chunked to single pages."""
        done = 0
        while done < len(data):
            chunk = data[done:done + PAGE_SIZE]
            while True:
                try:
                    yield from self.vdtu.cmd_write(ep, offset + done, chunk,
                                                   virt_addr=virt)
                    break
                except DtuFault as fault:
                    yield from self._recover(fault, virt, Perm.R)
            done += len(chunk)

    # --------------------------------------------------------------- syscalls

    def syscall(self, op: Syscall, args: Optional[Dict[str, Any]] = None) -> Generator:
        """A system call to the controller (a DTU message, section 3.3)."""
        yield self._syscall_ps
        msg = SyscallMsg(op, args or {})
        yield from self.send(self.act.sysc_sep, msg, SyscallMsg.SIZE,
                             reply_ep=self.act.sysc_rep)
        reply_msg = yield from self.recv(self.act.sysc_rep)
        yield from self.ack(self.act.sysc_rep, reply_msg)
        reply = reply_msg.data
        if not reply.ok:
            raise RpcError(f"syscall {op.value}: {reply.error}")
        return reply.value

    # ------------------------------------------------------------- scheduling

    def set_deadline(self, deadline_ps: Optional[int]) -> None:
        """Advise the scheduler of this activity's current deadline.

        A plain register write (no trap, no cost): the EDF policy reads
        it at pick time; every other policy ignores it, so workloads can
        stamp deadlines unconditionally.  ``None`` clears the deadline.
        """
        self.act.deadline_ps = deadline_ps

    def block(self) -> Generator:
        """Block until a message arrives for this activity."""
        yield BLOCK

    def yield_cpu(self) -> Generator:
        yield YIELD

    def sleep_us(self, us: float) -> Generator:
        """Sleep without occupying the core (device-driver style wait)."""
        yield TmCall("sleep", {"ps": round(us * 1_000_000)})

    def exit(self, code: int = 0) -> Generator:
        yield TmCall("exit", {"code": code})
