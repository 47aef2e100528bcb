"""Messages as stored in receive buffers.

A message records where it came from so that REPLY can route the answer
back (and return the sender's credit), mirroring the message header the
hardware writes in front of each payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(slots=True)
class Message:
    """One received message occupying a receive-buffer slot."""

    label: int                 # the *receive side's* label for the channel
    data: Any                  # payload (opaque to the DTU)
    size: int                  # payload bytes (drives all timing)
    src_tile: int              # where a REPLY must go
    reply_ep: Optional[int]    # receive EP on src_tile for the reply
    credit_ep: Optional[int]   # send EP on src_tile to re-credit
    credited: bool = False     # credit already returned (by REPLY)?
    read: bool = False
    seq: int = field(default_factory=itertools.count().__next__)
    uid: Optional[int] = None  # WireMsg uid for end-to-end trace identity
    # recovery: the credit_return_ep the first REPLY attempt put on the
    # wire, so a retransmitted reply carries the same credit exactly once
    reply_credit: Optional[int] = None

    @property
    def can_reply(self) -> bool:
        return self.reply_ep is not None
