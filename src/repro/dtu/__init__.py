"""Data transfer unit (DTU) models.

The DTU is the per-tile hardware component of the M3 family: it holds
communication *endpoints* (send / receive / memory), executes commands
(SEND, REPLY, READ, WRITE, FETCH, ACK) and talks to the NoC.

Three variants live here:

* :class:`~repro.dtu.dtu.Dtu` — the base (M3/M3x-style) DTU: endpoints
  are un-tagged and belong to whatever activity is currently loaded;
  the controller saves/restores them remotely over the external
  interface (M3x tile multiplexing).
* :class:`~repro.dtu.vdtu.VDtu` — the virtualized DTU of M3v: endpoints
  tagged with their owning activity, ``CUR_ACT`` register, privileged
  interface (atomic activity switch, software-loaded TLB inserts, core
  request queue), PMP memory endpoints.
* :class:`~repro.dtu.dtu.MemoryDtu` — the DTU of memory tiles: serves
  READ/WRITE DMA requests against DRAM.
"""

from repro.dtu.dtu import Dtu, MemoryDtu
from repro.dtu.endpoints import (
    Endpoint,
    EndpointKind,
    MemoryEndpoint,
    Perm,
    ReceiveEndpoint,
    SendEndpoint,
)
from repro.dtu.errors import DtuError, DtuFault
from repro.dtu.message import Message
from repro.dtu.params import DtuParams
from repro.dtu.tlb import Tlb, TlbEntry
from repro.dtu.vdtu import ACT_INVALID, ACT_TILEMUX, CoreRequest, VDtu

__all__ = [
    "Dtu",
    "MemoryDtu",
    "VDtu",
    "DtuError",
    "DtuFault",
    "DtuParams",
    "Endpoint",
    "EndpointKind",
    "SendEndpoint",
    "ReceiveEndpoint",
    "MemoryEndpoint",
    "Perm",
    "Message",
    "Tlb",
    "TlbEntry",
    "CoreRequest",
    "ACT_INVALID",
    "ACT_TILEMUX",
]
