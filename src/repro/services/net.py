"""The net service (section 4.4).

``net`` wraps a smoltcp-like UDP stack plus the AXI-Ethernet driver in
one activity, pinned to the NIC tile.  Clients get POSIX-like sockets
and exchange data and events with the service over their per-session
channel; the service polls/waits on the NIC with interrupt-driven
wake-ups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from repro.kernel.protocol import RpcReply
from repro.mux.api import BLOCK
from repro.tiles.nic import EthFrame, NicDevice

# cycle costs of the stack (smoltcp poll, checksums, socket demux) and
# the driver (descriptor handling, cache maintenance), per packet
STACK_TX_CY = 9000
STACK_RX_CY = 9000
DRIVER_TX_CY = 2500
DRIVER_RX_CY = 2500
SOCKET_OP_CY = 1200
COPY_BYTES_PER_CY = 8


class NetOp(enum.Enum):
    SOCKET = "socket"
    BIND = "bind"
    SENDTO = "sendto"
    RECVFROM = "recvfrom"
    CLOSE = "close"


class NetError(Exception):
    pass


@dataclass
class _Socket:
    sid: int
    owner: int
    port: int = 0
    rx: List[EthFrame] = field(default_factory=list)
    # parked RECVFROM requests: (message, request) to answer on arrival
    parked: List[Tuple] = field(default_factory=list)


class NetService:
    """Service state + activity program (always on the NIC tile)."""

    def __init__(self, rgate_ep: int, nic: NicDevice):
        self.rgate_ep = rgate_ep
        self.nic = nic
        self.socks: Dict[int, _Socket] = {}
        self._by_port: Dict[int, _Socket] = {}
        self._next_sid = 1
        self._next_port = 40000
        self.rx_dropped = 0

    def program(self, api) -> Generator:
        # the NIC interrupt must wake us out of a blocked state
        act = api.act
        mux = api.mux

        def wake():
            act._dev_kick = True
            from repro.kernel.activity import ActState
            if act.state is ActState.BLOCKED:
                act.state = ActState.READY
                mux.ready.append(act)
                mux._on_irq()

        self.nic.attach_driver(wake)

        while True:
            progress = False
            while self.nic.has_rx:
                yield from self._handle_rx(api)
                progress = True
            msg = yield from api.fetch(self.rgate_ep)
            if msg is not None:
                yield from self._handle_rpc(api, msg)
                progress = True
            if not progress and not self.nic.has_rx:
                act._dev_kick = False  # about to block; re-armed by the IRQ
                yield BLOCK

    # ------------------------------------------------------------------- RX

    def _handle_rx(self, api) -> Generator:
        frame = self.nic.pop_rx()
        yield from api.compute(DRIVER_RX_CY + STACK_RX_CY
                               + frame.size // COPY_BYTES_PER_CY)
        sock = self._by_port.get(frame.dst_port)
        if sock is None:
            self.rx_dropped += 1
            return
        if sock.parked:
            msg, req = sock.parked.pop(0)
            value = {"data": frame.payload, "size": frame.size,
                     "from_port": frame.src_port}
            yield from api.reply(self.rgate_ep, msg,
                                 RpcReply(req.seq, ok=True, value=value),
                                 RpcReply.SIZE)
        else:
            sock.rx.append(frame)

    # ------------------------------------------------------------------ RPCs

    def _handle_rpc(self, api, msg) -> Generator:
        req = msg.data
        client = msg.label
        try:
            value = yield from self._dispatch(api, client, msg, req)
        except NetError as exc:
            yield from api.reply(self.rgate_ep, msg,
                                 RpcReply(req.seq, ok=False, error=str(exc)),
                                 RpcReply.SIZE)
            return
        if value is _PARKED:
            return  # answered later, when a packet arrives
        yield from api.reply(self.rgate_ep, msg,
                             RpcReply(req.seq, ok=True, value=value),
                             RpcReply.SIZE)

    def _dispatch(self, api, client: int, msg, req) -> Generator:
        op, args = req.op, req.args
        if op is NetOp.SOCKET:
            yield from api.compute(SOCKET_OP_CY)
            sock = _Socket(self._next_sid, owner=client)
            self._next_sid += 1
            self.socks[sock.sid] = sock
            return {"sid": sock.sid}
        sock = self.socks.get(args.get("sid", -1))
        if sock is None or sock.owner != client:
            raise NetError(f"bad socket {args.get('sid')}")
        if op is NetOp.BIND:
            yield from api.compute(SOCKET_OP_CY)
            port = args.get("port") or self._next_port
            self._next_port += 1
            if port in self._by_port:
                raise NetError(f"port {port} in use")
            sock.port = port
            self._by_port[port] = sock
            return {"port": port}
        if op is NetOp.SENDTO:
            size = args["size"]
            yield from api.compute(STACK_TX_CY + DRIVER_TX_CY
                                   + size // COPY_BYTES_PER_CY)
            self.nic.transmit(EthFrame(payload=args.get("data"), size=size,
                                       src_port=sock.port,
                                       dst_port=args["dst_port"]))
            return {"sent": size}
        if op is NetOp.RECVFROM:
            yield from api.compute(SOCKET_OP_CY)
            if sock.rx:
                frame = sock.rx.pop(0)
                yield from api.compute(frame.size // COPY_BYTES_PER_CY)
                return {"data": frame.payload, "size": frame.size,
                        "from_port": frame.src_port}
            sock.parked.append((msg, req))
            return _PARKED
        if op is NetOp.CLOSE:
            yield from api.compute(SOCKET_OP_CY)
            self.socks.pop(sock.sid, None)
            self._by_port.pop(sock.port, None)
            return None
        raise NetError(f"unknown op {op}")


_PARKED = object()


class NetClient:
    """Client-side socket wrapper (POSIX-like, section 4.4)."""

    def __init__(self, api, send_ep: int, reply_ep: int):
        self.api = api
        self.send_ep = send_ep
        self.reply_ep = reply_ep

    def _rpc(self, op: NetOp, args: dict, size: int = 64) -> Generator:
        value = yield from self.api.rpc(self.send_ep, self.reply_ep, op,
                                        args, size=size)
        return value

    def socket(self) -> Generator:
        value = yield from self._rpc(NetOp.SOCKET, {})
        return value["sid"]

    def bind(self, sid: int, port: int = 0) -> Generator:
        value = yield from self._rpc(NetOp.BIND, {"sid": sid, "port": port})
        return value["port"]

    def sendto(self, sid: int, dst_port: int, data, size: int) -> Generator:
        """Send a datagram; the payload travels as a vDTU message to net."""
        value = yield from self._rpc(NetOp.SENDTO,
                                     {"sid": sid, "dst_port": dst_port,
                                      "data": data, "size": size},
                                     size=min(size + 48, 2048))
        return value["sent"]

    def recvfrom(self, sid: int) -> Generator:
        """Blocking receive; net replies when a datagram arrives."""
        return (yield from self._rpc(NetOp.RECVFROM, {"sid": sid}))

    def close(self, sid: int) -> Generator:
        yield from self._rpc(NetOp.CLOSE, {"sid": sid})
