"""The base DTU and the memory-tile DTU.

The base :class:`Dtu` implements the unprivileged interface (commands
usable by the running activity) and the external interface (endpoint
configuration by the controller).  It is the DTU of the controller
tile, of accelerator tiles, and — together with the save/restore hooks
— the DTU that M3x multiplexing manipulates remotely.

Timing protocol: command helpers (``cmd_*``) are generators executed on
the core's time line; they charge MMIO accesses, command processing and
DMA, and block until the command completes.  Packet reception runs in a
separate per-DTU process fed by the NoC inbox.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.sim import Simulator
from repro.noc import NocFabric, Packet, PacketKind
from repro.dtu.endpoints import (
    Endpoint,
    EndpointKind,
    MemoryEndpoint,
    Perm,
    ReceiveEndpoint,
    SendEndpoint,
    UNLIMITED_CREDITS,
)
from repro.dtu.errors import DtuError, DtuFault
from repro.dtu.message import Message
from repro.dtu.params import DramParams, DtuParams

_tags = itertools.count(1)
_msg_uids = itertools.count(1)


@dataclass(slots=True)
class WireMsg:
    """Payload of a MSG packet."""

    dst_ep: int
    label: int
    data: Any
    size: int
    src_tile: int
    reply_ep: Optional[int] = None      # where a REPLY should go (sender rEP)
    credit_ep: Optional[int] = None     # sender sEP to re-credit on ack
    is_reply: bool = False
    credit_return_ep: Optional[int] = None  # for replies: sEP at dst to credit
    # recovery-layer channel sequencing (repro.faults): both stay None
    # unless the sending mux runs a recovery policy, in which case the
    # receiving DTU dedups retransmitted copies by (chan, chan_seq)
    chan: Optional[int] = None
    chan_seq: Optional[int] = None
    # set in flight by a corrupting link fault; models a checksum failure
    corrupt: bool = False
    # end-to-end identity for trace-based conservation checks; unique per
    # interpreter, renumbered by the canonical trace serializer
    uid: int = field(default_factory=lambda: next(_msg_uids))


class ExtOp(enum.Enum):
    """External-interface operations (controller -> DTU)."""

    CONFIG_EP = "config_ep"
    INVAL_EP = "inval_ep"
    READ_EPS = "read_eps"        # M3x: controller saves DTU state
    WRITE_EPS = "write_eps"      # M3x: controller restores DTU state
    SWAP_EPS = "swap_eps"        # M3x: atomic save-and-invalidate — a
                                 # read/invalidate pair would lose any
                                 # message deposited between the two
    MIGRATE_EPS = "migrate_eps"  # migration: SWAP_EPS + install holding
                                 # forward stubs for the drained EP ids
    RELEASE_FWD = "release_fwd"  # migration: flush held packets, then
                                 # forward live arrivals immediately
    RETARGET_EP = "retarget_ep"  # migration: atomically repoint a send EP
                                 # at a migrated peer (only if all credits
                                 # are home, i.e. nothing is in flight)


@dataclass(slots=True)
class ExtRequest:
    op: ExtOp
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class _Forward:
    """A forward stub left behind on an EP id after activity migration.

    While ``holding`` (between MIGRATE_EPS and RELEASE_FWD) rewritten
    packets are queued here, because the new tile's endpoints are not
    installed yet; RELEASE_FWD flushes the queue in arrival order and
    switches to live forwarding.  Stubs for credit-limited send EPs are
    removed once the peer's RETARGET_EP succeeds; stubs for unlimited-
    credit EPs may persist (costing one extra hop) since a retarget
    cannot prove the channel idle.
    """

    dst_tile: int
    dst_ep: int
    holding: bool = True
    held: List[Packet] = field(default_factory=list)


class Dtu:
    """Base DTU: endpoint register file + command execution + NoC front."""

    def __init__(self, sim: Simulator, tile: int, fabric: NocFabric,
                 params: Optional[DtuParams] = None):
        self.sim = sim
        self.tile = tile
        self.fabric = fabric
        self.params = params or DtuParams()
        self.stats = sim.stats
        self.eps: List[Endpoint] = [Endpoint() for _ in range(self.params.num_endpoints)]
        # receive-EP index cache for scan loops; configure() invalidates
        self._eps_version = 0
        self._recv_ids: List[int] = []
        self._recv_ids_version = -1
        self._inbox = fabric.attach(tile)
        # hot-path constants and counters, hoisted (params never change)
        pr = self.params
        self._cmd2_ps = 2 * pr.mmio_access_ps + pr.cmd_setup_ps
        self._cmd4_ps = 4 * pr.mmio_access_ps + pr.cmd_setup_ps
        self._cmd5_ps = 5 * pr.mmio_access_ps + pr.cmd_setup_ps
        self._ctr_sends = self.stats.counter("dtu/sends")
        self._ctr_replies = self.stats.counter("dtu/replies")
        self._ctr_received = self.stats.counter("dtu/msgs_received")
        self._pending: Dict[int, Any] = {}   # tag -> completion Event
        # fault/recovery hooks (repro.faults); both inert by default so
        # the fault-free path is byte-identical to the plain DTU
        self.recovery = None        # RecoveryPolicy: arms MSG ack timeouts
        self._stall_until = 0       # stuck-tile fault: inbox frozen until then
        # (chan, chan_seq) of sends whose outcome is unknown (ack timed
        # out): the credit stays taken across retransmissions, because
        # the message may have been delivered and its eventual reply
        # returns the credit — returning it locally too would overflow
        self._credit_held: set = set()
        # migration forward stubs: old EP id -> _Forward.  Empty on every
        # tile that never sourced a migration, so the `if self._fwd`
        # guards keep the hot receive path entirely unchanged.
        self._fwd: Dict[int, _Forward] = {}
        # message-available line towards the attached component (used by the
        # controller and device tiles to sleep instead of polling)
        self.msg_callback = None
        self._recv_proc = sim.process(self._receive_loop(), name=f"dtu{tile}-rx")

    # -- configuration (used by the controller via the external interface,
    #    and directly by platform setup code) ---------------------------------

    def configure(self, ep_id: int, endpoint: Endpoint) -> None:
        self._check_ep_id(ep_id)
        self.eps[ep_id] = endpoint
        self._eps_version += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "ep_install", tile=self.tile, ep=ep_id,
                        ep_kind=endpoint.kind.value, act=endpoint.act,
                        unread=getattr(endpoint, "unread", 0))

    def invalidate_ep(self, ep_id: int) -> None:
        self.configure(ep_id, Endpoint())

    def recv_ep_indices(self) -> List[int]:
        """Indices of installed receive EPs, in endpoint order (cached)."""
        if self._recv_ids_version != self._eps_version:
            self._recv_ids = [i for i, ep in enumerate(self.eps)
                              if ep.kind is EndpointKind.RECEIVE]
            self._recv_ids_version = self._eps_version
        return self._recv_ids

    def _check_ep_id(self, ep_id: int) -> None:
        if not 0 <= ep_id < len(self.eps):
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep id {ep_id} out of range")

    # -- validation hooks overridden by the vDTU ------------------------------

    def _usable_ep(self, ep_id: int, kind: EndpointKind):
        """Fetch an endpoint for *use* by the current activity."""
        if not 0 <= ep_id < len(self.eps):
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep id {ep_id} out of range")
        ep = self.eps[ep_id]
        if ep.kind is not kind:
            raise DtuFault(DtuError.UNKNOWN_EP, f"ep {ep_id} is {ep.kind.value}")
        return ep

    def _translate(self, virt: int, size: int, perm: Perm) -> int:
        """Base DTU: physical addressing, no translation (controller tile)."""
        return virt

    def _deliverable_ep(self, ep_id: int) -> Optional[ReceiveEndpoint]:
        """Find the receive EP for an incoming message, if present."""
        if not 0 <= ep_id < len(self.eps):
            return None
        ep = self.eps[ep_id]
        if ep.kind is not EndpointKind.RECEIVE:
            return None
        return ep

    def _on_deposit(self, ep_id: int, ep: ReceiveEndpoint, msg: Message) -> None:
        """Hook: vDTU counts messages / raises core requests here."""
        if self.msg_callback is not None:
            self.msg_callback(ep_id)

    # -- unprivileged commands -------------------------------------------------

    def cmd_send(self, ep_id: int, data: Any, size: int,
                 reply_ep: Optional[int] = None,
                 virt_addr: int = 0,
                 seq: Optional[Tuple[int, int]] = None) -> Generator:
        """SEND: transmit a message over a send endpoint.

        Completes when the remote DTU acknowledged storing the message.
        Raises :class:`DtuFault` on any error.  ``seq`` is the recovery
        layer's ``(channel, sequence)`` pair: a retransmission of the
        same logical message carries the same pair, and the receiving
        DTU drops copies it already deposited.
        """
        # command registers: ep, addr, size, reply ep + trigger + poll
        yield self._cmd5_ps
        ep = self._usable_ep(ep_id, EndpointKind.SEND)
        if size > ep.max_msg_size:
            raise DtuFault(DtuError.MSG_TOO_LARGE, f"{size} > {ep.max_msg_size}")
        held = seq is not None and seq in self._credit_held
        if not held:
            if not ep.has_credits:
                self.stats.counter("dtu/credit_stalls").add()
                raise DtuFault(DtuError.MISSING_CREDITS)
            self._translate(virt_addr, size, Perm.R)
            ep.take_credit()
        else:
            self._translate(virt_addr, size, Perm.R)
        # DMA the message out of the core's memory
        yield self.params.dma_ps(size)
        wire = WireMsg(dst_ep=ep.dst_ep, label=ep.label, data=data, size=size,
                       src_tile=self.tile, reply_ep=reply_ep,
                       credit_ep=ep_id if ep.max_credits != -1 else None,
                       chan=None if seq is None else seq[0],
                       chan_seq=None if seq is None else seq[1])
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "msg_send", tile=self.tile, ep=ep_id,
                        dst_tile=ep.dst_tile, dst_ep=ep.dst_ep, size=size,
                        uid=wire.uid, reply=False)
        error = yield from self._transact(PacketKind.MSG, ep.dst_tile, wire, size)
        if error is not DtuError.NONE:
            if seq is not None and (error is DtuError.TIMEOUT or held):
                # outcome unknown (now or from an earlier attempt): the
                # message may sit in the receiver's buffer, so the credit
                # must stay taken until a definitive acknowledgement
                self._credit_held.add(seq)
            else:
                ep.return_credit()
            raise DtuFault(error, f"send to tile {ep.dst_tile} ep {ep.dst_ep}")
        if held:
            self._credit_held.discard(seq)
        self._ctr_sends.add()

    def cmd_reply(self, ep_id: int, msg: Message, data: Any, size: int,
                  virt_addr: int = 0,
                  seq: Optional[Tuple[int, int]] = None) -> Generator:
        """REPLY: answer a message fetched from receive EP ``ep_id``.

        Implicitly returns the sender's credit and frees the slot.  A
        recovery-layer retransmission (same ``seq``) of a reply whose
        slot was already freed re-sends the same wire message — including
        the original credit return, which the receiver's dedup guarantees
        is applied at most once.
        """
        yield self._cmd5_ps
        ep = self._usable_ep(ep_id, EndpointKind.RECEIVE)
        if not msg.can_reply:
            raise DtuFault(DtuError.UNKNOWN_EP, "message has no reply endpoint")
        self._translate(virt_addr, size, Perm.R)
        yield self.params.dma_ps(size)
        in_buffer = any(slot is msg for slot in ep.buffer)
        if in_buffer:
            msg.reply_credit = None if msg.credited else msg.credit_ep
            msg.credited = True
        wire = WireMsg(dst_ep=msg.reply_ep, label=msg.label, data=data,
                       size=size, src_tile=self.tile, is_reply=True,
                       credit_return_ep=msg.reply_credit,
                       chan=None if seq is None else seq[0],
                       chan_seq=None if seq is None else seq[1])
        was_read = msg.read
        if in_buffer:
            ep.ack(msg)
        tracer = self.sim.tracer
        if tracer is not None:
            if in_buffer:
                tracer.emit(self.sim, "msg_ack", tile=self.tile, ep=ep_id,
                            act=ep.act, uid=msg.uid, unread=ep.unread,
                            freed_unread=not was_read)
            tracer.emit(self.sim, "msg_send", tile=self.tile, ep=ep_id,
                        dst_tile=msg.src_tile, dst_ep=msg.reply_ep, size=size,
                        uid=wire.uid, reply=True)
        error = yield from self._transact(PacketKind.MSG, msg.src_tile, wire, size)
        if error is not DtuError.NONE:
            raise DtuFault(error, f"reply to tile {msg.src_tile}")
        self._ctr_replies.add()

    def cmd_fetch(self, ep_id: int) -> Generator:
        """FETCH: pop the oldest unread message; returns Message or None."""
        yield self._cmd2_ps
        ep = self._usable_ep(ep_id, EndpointKind.RECEIVE)
        msg = ep.fetch()
        if msg is not None:
            self._on_fetch(ep)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "msg_fetch", tile=self.tile, ep=ep_id,
                            act=ep.act, uid=msg.uid, unread=ep.unread)
        return msg

    def _on_fetch(self, ep: ReceiveEndpoint) -> None:
        """Hook: vDTU decrements CUR_ACT message count here."""

    def cmd_ack(self, ep_id: int, msg: Message) -> Generator:
        """ACK: free the message's slot; return the credit if still owed."""
        yield self._cmd2_ps
        ep = self._usable_ep(ep_id, EndpointKind.RECEIVE)
        was_read = msg.read
        ep.ack(msg)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "msg_ack", tile=self.tile, ep=ep_id,
                        act=ep.act, uid=msg.uid, unread=ep.unread,
                        freed_unread=not was_read)
        if not msg.credited and msg.credit_ep is not None:
            msg.credited = True
            self.fabric.send(Packet(PacketKind.ACK, src=self.tile,
                                    dst=msg.src_tile, size=0,
                                    payload=msg.credit_ep))

    def cmd_read(self, ep_id: int, offset: int, size: int,
                 virt_addr: int = 0) -> Generator:
        """READ: DMA ``size`` bytes from a memory endpoint; returns bytes."""
        yield self._cmd4_ps
        ep = self._usable_ep(ep_id, EndpointKind.MEMORY)
        if Perm.R not in ep.perm:
            raise DtuFault(DtuError.NO_PERM, "memory EP not readable")
        if not ep.contains(offset, size):
            raise DtuFault(DtuError.OUT_OF_BOUNDS,
                           f"[{offset}, {offset + size}) not in EP of size {ep.size}")
        self._translate(virt_addr, size, Perm.W)
        req = Packet(PacketKind.READ_REQ, src=self.tile, dst=ep.dst_tile,
                     size=0, payload=(ep.base + offset, size), tag=next(_tags))
        data = yield from self._await_response(req)
        # DMA the data into the core's memory
        yield self.params.dma_ps(size)
        self.stats.counter("dtu/reads").add()
        self.stats.counter("dtu/read_bytes").add(size)
        return data

    def cmd_write(self, ep_id: int, offset: int, data: bytes,
                  virt_addr: int = 0) -> Generator:
        """WRITE: DMA ``data`` into a memory endpoint."""
        size = len(data)
        yield self._cmd4_ps
        ep = self._usable_ep(ep_id, EndpointKind.MEMORY)
        if Perm.W not in ep.perm:
            raise DtuFault(DtuError.NO_PERM, "memory EP not writable")
        if not ep.contains(offset, size):
            raise DtuFault(DtuError.OUT_OF_BOUNDS,
                           f"[{offset}, {offset + size}) not in EP of size {ep.size}")
        self._translate(virt_addr, size, Perm.R)
        yield self.params.dma_ps(size)
        req = Packet(PacketKind.WRITE_REQ, src=self.tile, dst=ep.dst_tile,
                     size=size, payload=(ep.base + offset, data), tag=next(_tags))
        yield from self._await_response(req)
        self.stats.counter("dtu/writes").add()
        self.stats.counter("dtu/write_bytes").add(size)

    # -- transport helpers ------------------------------------------------------

    def _transact(self, kind: PacketKind, dst_tile: int, payload: Any,
                  size: int) -> Generator:
        """Send a packet and wait for its ACK/ERROR; returns a DtuError."""
        tag = next(_tags)
        done = self.sim.event()
        self._pending[tag] = done
        self.fabric.send(Packet(kind, src=self.tile, dst=dst_tile,
                                size=size, payload=payload, tag=tag))
        if self.recovery is not None and kind is PacketKind.MSG:
            self.sim.process(
                self._ack_timer(tag, done, payload.uid,
                                self.recovery.ack_timeout_ps),
                name=f"dtu{self.tile}-acktimer{tag}")
        result = yield done
        return result

    def _ack_timer(self, tag: int, done, uid: int,
                   timeout_ps: int) -> Generator:
        """Recovery: fail a MSG transaction whose ACK never arrived.

        Completing the command with ``TIMEOUT`` makes ``cmd_send`` return
        the credit and raise, so the mux-level retransmission layer can
        back off and resend.  A late ACK for the abandoned tag is dropped
        by :meth:`_handle_packet`.
        """
        yield timeout_ps
        if self._pending.get(tag) is done:
            del self._pending[tag]
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "msg_timeout", tile=self.tile, uid=uid)
            self.stats.counter("dtu/ack_timeouts").add()
            done.succeed(DtuError.TIMEOUT)

    def _await_response(self, req: Packet) -> Generator:
        done = self.sim.event()
        self._pending[req.tag] = done
        self.fabric.send(req)
        result = yield done
        if isinstance(result, DtuError):
            raise DtuFault(result)
        return result

    # -- packet reception --------------------------------------------------------

    def _receive_loop(self) -> Generator:
        while True:
            pkt = yield self._inbox.get()
            if self._stall_until > self.sim.now:
                # stuck-tile fault: stop draining the inbox until the
                # fault clears; the NoC's packet-based flow control
                # backpressures senders upstream
                yield self._stall_until - self.sim.now
            yield from self._handle_packet(pkt)

    def _handle_packet(self, pkt: Packet) -> Generator:
        if pkt.kind is PacketKind.MSG:
            if self._fwd and pkt.payload.dst_ep in self._fwd:
                self._forward_msg(pkt, self._fwd[pkt.payload.dst_ep])
                return
            yield from self._handle_msg(pkt)
        elif pkt.kind is PacketKind.ACK:
            if pkt.tag in self._pending:
                self._pending.pop(pkt.tag).succeed(pkt.payload)
            elif pkt.tag is None:
                self._handle_credit_return(pkt.payload)
            # else: a late completion ACK for a transaction the recovery
            # layer already timed out — the retransmission owns the
            # outcome now, so the stale confirmation is dropped
        elif pkt.kind in (PacketKind.READ_RESP, PacketKind.WRITE_RESP,
                          PacketKind.EXT_RESP, PacketKind.ERROR):
            done = self._pending.pop(pkt.tag, None)
            if done is not None:
                done.succeed(pkt.payload)
        elif pkt.kind is PacketKind.EXT_REQ:
            yield from self._handle_ext(pkt)
        elif pkt.kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            # only memory tiles serve DMA; anything else is a protocol error
            self.fabric.send(pkt.response_to(PacketKind.ERROR,
                                             payload=DtuError.UNKNOWN_EP))
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unhandled packet kind {pkt.kind}")

    def _handle_msg(self, pkt: Packet) -> Generator:
        wire: WireMsg = pkt.payload
        if wire.corrupt:
            # link fault flipped bits in flight; the payload checksum
            # fails, so the message is NACKed and never reaches software
            self._trace_bounce(wire, DtuError.PKT_CORRUPT)
            self._respond(pkt, DtuError.PKT_CORRUPT)
            return
        ep = self._deliverable_ep(wire.dst_ep)
        if ep is None:
            self._trace_bounce(wire, DtuError.RECV_GONE)
            self._respond(pkt, DtuError.RECV_GONE)
            return
        if wire.size > ep.slot_size:
            self._trace_bounce(wire, DtuError.MSG_TOO_LARGE)
            self._respond(pkt, DtuError.MSG_TOO_LARGE)
            return
        if wire.chan is not None and ep.is_duplicate(wire.chan, wire.chan_seq):
            # retransmitted copy of a message this EP already deposited:
            # confirm success again (the original ACK may have been lost)
            # but deliver nothing — at-most-once.  Checked before the
            # credit return below so a duplicate reply cannot mint credits.
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "msg_dedup", tile=self.tile,
                            ep=wire.dst_ep, uid=wire.uid)
            self.stats.counter("dtu/msgs_deduped").add()
            self._respond(pkt, DtuError.NONE)
            return
        if ep.free_slots == 0:
            self._trace_bounce(wire, DtuError.RECV_FULL)
            self._respond(pkt, DtuError.RECV_FULL)
            return
        # reply delivery implicitly returns the original sender's credit
        if wire.is_reply and wire.credit_return_ep is not None:
            credit_ep = self.eps[wire.credit_return_ep]
            if isinstance(credit_ep, SendEndpoint):
                credit_ep.return_credit()
        msg = Message(label=wire.label, data=wire.data, size=wire.size,
                      src_tile=wire.src_tile, reply_ep=wire.reply_ep,
                      credit_ep=wire.credit_ep,
                      credited=wire.is_reply or wire.credit_ep is None,
                      uid=wire.uid)
        # DMA the payload into the receive buffer in tile memory
        yield self.params.dma_ps(wire.size)
        ep.deposit(msg)
        if wire.chan is not None:
            ep.record_seq(wire.chan, wire.chan_seq)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "msg_deliver", tile=self.tile,
                        ep=wire.dst_ep, act=ep.act, uid=wire.uid,
                        unread=ep.unread)
        yield from self._on_deposit_blocking(wire.dst_ep, ep, msg)
        self._respond(pkt, DtuError.NONE)
        self._ctr_received.add()

    def _trace_bounce(self, wire: WireMsg, error: DtuError) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "msg_bounce", tile=self.tile,
                        uid=wire.uid, error=error.value)

    def _on_deposit_blocking(self, ep_id: int, ep: ReceiveEndpoint,
                             msg: Message) -> Generator:
        """Hook wrapper allowing the vDTU to stall on core-request overrun."""
        self._on_deposit(ep_id, ep, msg)
        return
        yield  # pragma: no cover - makes this a generator

    def _respond(self, pkt: Packet, error: DtuError) -> None:
        kind = PacketKind.ACK if error is DtuError.NONE else PacketKind.ERROR
        resp = pkt.response_to(kind, payload=error)
        # route completion directly (the sender's _pending table keys on tag)
        self.fabric.send(resp)
        if error is not DtuError.NONE:
            self.stats.counter(f"dtu/err_{error.value}").add()

    # -- migration forwarding ---------------------------------------------------

    def _forward_msg(self, pkt: Packet, fwd: _Forward) -> None:
        """Relay a MSG for a migrated EP to its new home.

        The packet keeps its original ``src`` and ``tag``, so the new
        tile's deposit ACK completes the *sender's* pending transaction
        directly — the sender observes exactly one outcome per send
        (exactly-once), it just took an extra hop.  Reply credit returns
        travel inside the wire message and target an sEP of the same
        migrated activity, so they are rewritten through the same map.
        """
        wire: WireMsg = pkt.payload
        wire.dst_ep = fwd.dst_ep
        if wire.credit_return_ep is not None:
            cr = self._fwd.get(wire.credit_return_ep)
            if cr is not None:
                wire.credit_return_ep = cr.dst_ep
        out = Packet(PacketKind.MSG, src=pkt.src, dst=fwd.dst_tile,
                     size=pkt.size, payload=wire, tag=pkt.tag)
        self._dispatch_forward(fwd, out)

    def _dispatch_forward(self, fwd: _Forward, out: Packet) -> None:
        if fwd.holding:
            fwd.held.append(out)
        else:
            self.fabric.send(out)
        self.stats.counter("dtu/migr_forwards").add()

    def _handle_credit_return(self, ep_id: int) -> None:
        if self._fwd and ep_id in self._fwd:
            # tag-less credit-return ACK for a migrated send EP
            fwd = self._fwd[ep_id]
            self._dispatch_forward(fwd, Packet(PacketKind.ACK, src=self.tile,
                                               dst=fwd.dst_tile, size=0,
                                               payload=fwd.dst_ep))
            return
        if 0 <= ep_id < len(self.eps):
            ep = self.eps[ep_id]
            if isinstance(ep, SendEndpoint):
                ep.return_credit()

    def _handle_ext(self, pkt: Packet) -> Generator:
        req: ExtRequest = pkt.payload
        yield self.params.ext_cmd_ps
        result: Any = None
        if req.op is ExtOp.CONFIG_EP:
            self.configure(req.args["ep_id"], req.args["endpoint"])
        elif req.op is ExtOp.INVAL_EP:
            self.invalidate_ep(req.args["ep_id"])
        elif req.op is ExtOp.READ_EPS:
            ids = req.args["ep_ids"]
            yield self.params.ext_cmd_ps * len(ids)
            result = {i: self.eps[i].snapshot()
                      if self.eps[i].kind is not EndpointKind.INVALID else Endpoint()
                      for i in ids}
        elif req.op is ExtOp.WRITE_EPS:
            eps = req.args["eps"]
            yield self.params.ext_cmd_ps * len(eps)
            for ep_id, ep in sorted(eps.items()):
                self.configure(ep_id, ep)
        elif req.op is ExtOp.SWAP_EPS:
            ids = req.args["ep_ids"]
            yield self.params.ext_cmd_ps * 2 * len(ids)
            # snapshot and invalidate with no intervening yield: deposits
            # that raced the save landed before this instant and are in
            # the snapshot; later arrivals bounce to the slow path
            result = {i: self.eps[i].snapshot()
                      if self.eps[i].kind is not EndpointKind.INVALID else Endpoint()
                      for i in ids}
            for i in ids:
                self.configure(i, Endpoint())
        elif req.op is ExtOp.MIGRATE_EPS:
            ids = req.args["ep_ids"]
            fwd = req.args["fwd"]  # old EP id -> (new tile, new EP id)
            yield self.params.ext_cmd_ps * 2 * len(ids)
            # SWAP_EPS semantics (snapshot + invalidate, no intervening
            # yield) plus forward stubs installed in the same instant, so
            # not a single packet can slip between drain and forwarding
            result = {i: self.eps[i].snapshot()
                      if self.eps[i].kind is not EndpointKind.INVALID else Endpoint()
                      for i in ids}
            for i in ids:
                self.configure(i, Endpoint())
            for old_ep, (dst_tile, new_ep) in sorted(fwd.items()):
                self._fwd[old_ep] = _Forward(dst_tile, new_ep)
        elif req.op is ExtOp.RELEASE_FWD:
            ids = req.args["ep_ids"]
            yield self.params.ext_cmd_ps * len(ids)
            for i in ids:
                fwd = self._fwd.get(i)
                if fwd is not None and fwd.holding:
                    fwd.holding = False
                    held, fwd.held = fwd.held, []
                    for out in held:
                        self.fabric.send(out)
        elif req.op is ExtOp.RETARGET_EP:
            ep_id = req.args["ep_id"]
            result = False
            if 0 <= ep_id < len(self.eps):
                ep = self.eps[ep_id]
                # succeed only when every credit is home: in-flight
                # messages (or unreturned credits) could otherwise race
                # the stub path and reorder at the new tile
                if (isinstance(ep, SendEndpoint)
                        and ep.dst_tile == req.args["old_tile"]
                        and ep.dst_ep == req.args["old_ep"]
                        and ep.max_credits != UNLIMITED_CREDITS
                        and ep.credits == ep.max_credits):
                    ep.dst_tile = req.args["new_tile"]
                    ep.dst_ep = req.args["new_ep"]
                    result = True
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown ext op {req.op}")
        self.fabric.send(pkt.response_to(PacketKind.EXT_RESP, payload=result))


class SparseDram:
    """A zero-initialized byte store that allocates 64 KiB pages on first
    write.

    Behaves like ``bytearray(size)`` for the slice reads/writes the DMA
    path performs, without paying the up-front allocation and zeroing of
    the full DRAM size per memory tile (64 MiB per tile dominated
    platform construction time).  Unwritten ranges read as zeros.
    """

    __slots__ = ("size", "_pages")

    PAGE = 1 << 16

    def __init__(self, size: int):
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key: slice) -> bytearray:
        start, stop, step = key.indices(self.size)
        if step != 1:
            raise ValueError("SparseDram only supports contiguous slices")
        out = bytearray(stop - start)
        page_size = self.PAGE
        pages = self._pages
        pos = start
        while pos < stop:
            page_no, off = divmod(pos, page_size)
            chunk = min(page_size - off, stop - pos)
            page = pages.get(page_no)
            if page is not None:
                out[pos - start:pos - start + chunk] = page[off:off + chunk]
            pos += chunk
        return out

    def __setitem__(self, key: slice, data) -> None:
        start, stop, step = key.indices(self.size)
        if step != 1:
            raise ValueError("SparseDram only supports contiguous slices")
        if len(data) != stop - start:
            raise ValueError(f"cannot write {len(data)} bytes into "
                             f"[{start}, {stop})")
        page_size = self.PAGE
        pages = self._pages
        pos = start
        while pos < stop:
            page_no, off = divmod(pos, page_size)
            chunk = min(page_size - off, stop - pos)
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = bytearray(page_size)
            page[off:off + chunk] = data[pos - start:pos - start + chunk]
            pos += chunk


class MemoryDtu(Dtu):
    """The DTU of a memory tile: serves DMA against DRAM.

    Requests are served one at a time, so concurrent readers contend for
    the DRAM interface — the "other shared resources" that ultimately
    bound M3v's scalability in Figure 9.
    """

    def __init__(self, sim: Simulator, tile: int, fabric: NocFabric,
                 dram_size: int,
                 params: Optional[DtuParams] = None,
                 dram: Optional[DramParams] = None):
        super().__init__(sim, tile, fabric, params=params)
        self.dram_params = dram or DramParams()
        self.dram = SparseDram(dram_size)

    def _handle_packet(self, pkt: Packet) -> Generator:
        if pkt.kind is PacketKind.READ_REQ:
            addr, size = pkt.payload
            self._check_range(pkt, addr, size)
            yield self.dram_params.access_ps(size)
            data = bytes(self.dram[addr:addr + size])
            self.fabric.send(pkt.response_to(PacketKind.READ_RESP,
                                             size=size, payload=data))
            self.stats.counter("dram/reads").add()
        elif pkt.kind is PacketKind.WRITE_REQ:
            addr, data = pkt.payload
            self._check_range(pkt, addr, len(data))
            yield self.dram_params.access_ps(len(data))
            self.dram[addr:addr + len(data)] = data
            self.fabric.send(pkt.response_to(PacketKind.WRITE_RESP))
            self.stats.counter("dram/writes").add()
        else:
            yield from super()._handle_packet(pkt)

    def _check_range(self, pkt: Packet, addr: int, size: int) -> None:
        if addr < 0 or addr + size > len(self.dram):
            raise DtuFault(DtuError.OUT_OF_BOUNDS,
                           f"DRAM access [{addr}, {addr + size}) beyond "
                           f"{len(self.dram)} (from tile {pkt.src})")
