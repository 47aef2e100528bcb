"""Clocks and calibrated cycle costs.

Cycle-denominated costs capture core-side software work (traps,
scheduling, marshalling); they scale with the core's clock frequency,
which is how the same software lands at ~5k cycles for a tile-local RPC
both on the 80 MHz BOOM FPGA core and on gem5's 3 GHz x86 core — the
paper reports this operation in cycles for exactly that reason
(section 6.2).  Wire-denominated costs (NoC, DRAM) live with their
devices in nanoseconds.

The anchor points for the calibration are listed in DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

PS_PER_SECOND = 10**12


@dataclass(frozen=True)
class CoreClock:
    """Converts a core's cycles into the platform's picosecond time base."""

    freq_mhz: float
    # derived once: every charge on the hot path multiplies by it
    period_ps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "period_ps",
                           round(PS_PER_SECOND / (self.freq_mhz * 1e6)))

    def cycles_to_ps(self, cycles: int) -> int:
        return cycles * self.period_ps

    def us_to_cycles(self, us: float) -> float:
        return us * self.freq_mhz


@dataclass(frozen=True)
class CoreCosts:
    """Calibrated software cost model of one core type (in cycles)."""

    name: str = "generic"
    freq_mhz: float = 80.0

    # --- traps and privileged-mode transitions -------------------------------
    trap_enter: int = 120           # ecall/exception into TileMux
    trap_exit: int = 120            # sret back to the activity
    irq_entry: int = 180            # asynchronous interrupt vectoring

    # --- TileMux work ----------------------------------------------------------
    tmcall_dispatch: int = 60       # decode + validate a TMCall
    core_req_handle: int = 150      # read/ack a core request, mark ready
    sched_pick: int = 150           # round-robin pick + bookkeeping
    ctx_switch: int = 900           # GPR save/restore, address-space switch,
                                    # and first-order cache-warmup effects
    timer_program: int = 40         # re-arm the timeslice timer

    # --- m3 library (userspace) --------------------------------------------------
    lib_send: int = 420             # marshal + issue SEND
    lib_reply: int = 360
    lib_fetch: int = 200            # one fetch attempt incl. ring scan
    lib_ack: int = 60
    lib_poll: int = 150             # one iteration of the poll loop (3.7)
    lib_syscall: int = 300          # build a controller syscall message

    # --- generic compute helpers ---------------------------------------------------
    mem_touch_page: int = 40        # warm access to a mapped page

    def __post_init__(self) -> None:
        # the activity library charges each lib_* as one precomputed
        # timeout (repro.mux.api); a zero charge would be an extra event
        # where compute() yields none
        for f in fields(self):
            if f.name.startswith("lib_") and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, "
                                 f"got {getattr(self, f.name)}")

    @property
    def clock(self) -> CoreClock:
        return CoreClock(self.freq_mhz)


@dataclass(frozen=True)
class LinuxCosts:
    """Cost model of the Linux baseline (section 6, 'Linux 5.11').

    The i-cache pollution term models the effect the paper blames for
    Linux's scan-heavy YCSB loss: the kernel's large code footprint
    evicts the application's working set on every trap (section 6.5.2),
    so each syscall pays a refill proportional to the subsystem it
    touches.
    """

    name: str = "linux"
    freq_mhz: float = 80.0

    syscall_entry: int = 300
    syscall_exit: int = 200
    syscall_dispatch: int = 100
    icache_refill_noop: int = 1200     # pollution of a trivial syscall
    icache_refill_fs: int = 2600       # VFS + tmpfs path
    icache_refill_net: int = 3400      # socket + UDP/IP + driver path
    sched_pick: int = 400
    ctx_switch: int = 1600
    copy_bytes_per_cycle: int = 8      # copy_{to,from}_user bandwidth

    @property
    def clock(self) -> CoreClock:
        return CoreClock(self.freq_mhz)

    def syscall_overhead(self, refill: int) -> int:
        return (self.syscall_entry + self.syscall_dispatch
                + self.syscall_exit + refill)


# Core presets used by the paper's two platforms.
ROCKET = CoreCosts(name="rocket", freq_mhz=100.0)
BOOM = CoreCosts(name="boom", freq_mhz=80.0)
# gem5's 3 GHz out-of-order x86 used for the M3x comparison (section 6.4)
X86_GEM5 = CoreCosts(name="x86-gem5", freq_mhz=3000.0)
