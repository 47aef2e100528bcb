"""Wire protocols between activities, TileMux instances and the controller.

All of these travel as DTU messages; the dataclasses are the payloads.
The fixed endpoint layout below is part of the protocol: the
controller, TileMux and the M3x mux all address each other through it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

_seq = itertools.count(1)

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


class Syscall(enum.Enum):
    """Controller system calls (sent as DTU messages, section 3.3)."""

    CREATE_RGATE = "create_rgate"
    CREATE_SGATE = "create_sgate"
    CREATE_MGATE = "create_mgate"
    DERIVE_MGATE = "derive_mgate"
    ACTIVATE = "activate"
    DELEGATE = "delegate"          # push one of my caps to another activity
    REVOKE = "revoke"
    MAP = "map"                    # pager: map pages into a client's AS
    NOOP = "noop"                  # for microbenchmarks
    FORWARD = "forward"            # M3x slow path: deliver a message to a
                                   # non-running activity via the controller


@dataclass
class SyscallMsg:
    op: Syscall
    args: Dict[str, Any] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_seq))

    SIZE = 128  # bytes on the wire


@dataclass
class SyscallReply:
    seq: int
    ok: bool
    value: Any = None
    error: str = ""

    SIZE = 64


class TmuxOp(enum.Enum):
    """Controller -> TileMux requests (section 3.3)."""

    CREATE_ACT = "create_act"
    MAP = "map"
    M3X_SAVE = "m3x_save"      # M3x: save the current context's registers
    M3X_RESUME = "m3x_resume"  # M3x: install and run a context
    MIGRATE_OUT = "migrate_out"  # detach an activity for live migration
    MIGRATE_IN = "migrate_in"    # adopt a migrated activity


@dataclass
class TmuxReq:
    op: TmuxOp
    args: Dict[str, Any] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_seq))

    SIZE = 96


@dataclass
class TmuxReply:
    seq: int
    ok: bool
    error: str = ""

    SIZE = 32


class TmuxNotify(enum.Enum):
    """TileMux -> controller notifications."""

    EXIT = "exit"
    BLOCKED = "blocked"  # M3x: current activity blocked; please schedule
    WAKEUP = "wakeup"    # M3x: a descheduled activity's sleep timer fired
    FAULT = "fault"      # recovery: watchdog/fault report for health tracking
    LOAD = "load"        # rebalancing: periodic runnable-depth beacon


@dataclass
class NotifyMsg:
    kind: TmuxNotify
    args: Dict[str, Any] = field(default_factory=dict)

    SIZE = 48


class PagerOp(enum.Enum):
    """TileMux/client -> pager service."""

    PAGEFAULT = "pagefault"
    CLONE = "clone"


@dataclass
class RpcMsg:
    """Generic request payload for service RPCs (fs, net, pager)."""

    op: Any
    args: Dict[str, Any] = field(default_factory=dict)
    seq: int = field(default_factory=lambda: next(_seq))

    SIZE = 64


@dataclass
class RpcReply:
    seq: int
    ok: bool
    value: Any = None
    error: str = ""

    SIZE = 64
