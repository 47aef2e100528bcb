"""NoC packets.

A packet is the unit of transfer on the interconnect.  DTU commands
decompose into one or more packets (e.g. a READ is a request packet and
a response packet carrying the data).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

_next_pid = itertools.count().__next__

# Every packet carries a fixed header in addition to its payload.
HEADER_BYTES = 16


class PacketKind(enum.Enum):
    """What a packet does at the receiving DTU."""

    MSG = "msg"                # message-passing payload (send/reply)
    READ_REQ = "read_req"      # DMA read request to a memory endpoint
    READ_RESP = "read_resp"    # data coming back
    WRITE_REQ = "write_req"    # DMA write carrying data
    WRITE_RESP = "write_resp"  # write acknowledgement
    ACK = "ack"                # credit return / message ack
    EXT_REQ = "ext_req"        # controller -> DTU external interface
    EXT_RESP = "ext_resp"      # DTU -> controller external response
    ERROR = "error"            # error response (e.g. no receive buffer)


class Packet:
    """One NoC packet.

    ``payload`` is opaque to the network; the DTUs interpret it.
    ``size`` is the payload size in bytes (header added by the fabric).
    ``tag`` correlates requests and responses; ``pid`` is unique per
    interpreter.
    """

    __slots__ = ("kind", "src", "dst", "size", "payload", "tag", "pid")

    def __init__(self, kind: PacketKind, src: int, dst: int, size: int = 0,
                 payload: Any = None, tag: Optional[int] = None) -> None:
        if size < 0:
            raise ValueError(f"negative packet size {size}")
        self.kind = kind
        self.src = src                # source tile id
        self.dst = dst                # destination tile id
        self.size = size              # payload bytes
        self.payload = payload
        self.tag = tag
        self.pid = _next_pid()

    @property
    def wire_size(self) -> int:
        """Bytes actually occupying the link, including the header."""
        return self.size + HEADER_BYTES

    def response_to(self, kind: PacketKind, size: int = 0, payload: Any = None) -> "Packet":
        """Build the response packet travelling back to the sender."""
        return Packet(kind, self.dst, self.src, size, payload, self.tag)
