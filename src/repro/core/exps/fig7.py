"""Figure 7: file read/write throughput, M3v (shared/isolated) vs Linux.

2 MiB files, 4 KiB buffers, 64-block extents; 10 measured runs after 4
warmup runs (section 6.3).  "Shared" puts the pager, the file system
and the benchmark on one BOOM core; "isolated" gives each its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.exps.common import fpga_system, linux_system
from repro.linuxsim.machine import O_CREAT as L_O_CREAT
from repro.linuxsim.machine import O_TRUNC as L_O_TRUNC
from repro.linuxsim.machine import O_WRONLY as L_O_WRONLY
from repro.services.boot import boot_m3fs, boot_pager, connect_fs
from repro.services.m3fs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY, FsClient


# (system, op, shared) for the six bars, in the order Figure 7 plots them
FIG7_BARS = (("linux", "write", False), ("linux", "read", False),
             ("m3v", "write", True), ("m3v", "write", False),
             ("m3v", "read", True), ("m3v", "read", False))


@dataclass(frozen=True)
class Fig7Point:
    system: str                # "linux" | "m3v"
    op: str                    # "read" | "write"
    shared: bool = False       # meaningful for m3v only
    file_bytes: int = 2 * 1024 * 1024
    buf_bytes: int = 4096
    runs: int = 10
    warmup: int = 4
    max_extent_blocks: int = 64

    @property
    def name(self) -> str:
        if self.system == "linux":
            return f"linux_{self.op}"
        return f"m3v_{self.op}_{'shared' if self.shared else 'isolated'}"


def _mib_per_s(total_bytes: int, ps: int) -> float:
    return total_bytes / (1 << 20) / (ps / 1e12)


def _run_m3v(p: Fig7Point) -> float:
    plat = fpga_system()
    op, shared = p.op, p.shared
    fs_tile = 1
    bench_tile = 1 if shared else 2
    pager_tile = 1 if shared else 3

    pager, _ = plat.run_proc(boot_pager(plat, tile=pager_tile))
    blocks = max(512, 4 * p.file_bytes // 4096)
    fs = plat.run_proc(boot_m3fs(plat, tile=fs_tile, blocks=blocks,
                                 max_extent_blocks=p.max_extent_blocks))
    if op == "read":
        fs.populate(plat.tiles[fs.region.mem_tile].dtu, "/bench.dat",
                    b"\xab" * p.file_bytes,
                    max_extent_blocks=p.max_extent_blocks)
    env: Dict = {}
    out: Dict = {}

    def bench(api):
        while "fs_eps" not in env:
            yield api.sim.timeout(1_000_000)
        fsc = FsClient(api, *env["fs_eps"])
        chunk = b"\xcd" * p.buf_bytes

        def one_run():
            if op == "read":
                fd = yield from fsc.open("/bench.dat", O_RDONLY)
                while True:
                    data = yield from fsc.read(fd, p.buf_bytes)
                    if not data:
                        break
                yield from fsc.close(fd)
            else:
                fd = yield from fsc.open("/bench.dat",
                                         O_WRONLY | O_CREAT | O_TRUNC)
                written = 0
                while written < p.file_bytes:
                    yield from fsc.write(fd, chunk)
                    written += len(chunk)
                yield from fsc.close(fd)

        for _ in range(p.warmup):
            yield from one_run()
        start = api.sim.now
        for _ in range(p.runs):
            yield from one_run()
        out["ps"] = api.sim.now - start

    act = plat.run_proc(plat.controller.spawn("bench", bench_tile, bench,
                                              pager="pager"))
    env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
    plat.sim.run_until_event(act.exit_event, limit=10**15)
    return _mib_per_s(p.runs * p.file_bytes, out["ps"])


def _run_linux(p: Fig7Point) -> float:
    machine = linux_system()
    op = p.op
    out: Dict = {}

    def prog(api):
        chunk = b"\xcd" * p.buf_bytes
        if op == "read":
            fd = yield from api.open("/bench.dat", L_O_CREAT | L_O_WRONLY)
            written = 0
            while written < p.file_bytes:
                yield from api.write(fd, chunk)
                written += len(chunk)
            yield from api.close(fd)

        def one_run():
            if op == "read":
                fd = yield from api.open("/bench.dat")
                while True:
                    data = yield from api.read(fd, p.buf_bytes)
                    if not data:
                        break
                yield from api.close(fd)
            else:
                fd = yield from api.open("/bench.dat",
                                         L_O_CREAT | L_O_WRONLY | L_O_TRUNC)
                written = 0
                while written < p.file_bytes:
                    yield from api.write(fd, chunk)
                    written += len(chunk)
                yield from api.close(fd)

        for _ in range(p.warmup):
            yield from one_run()
        start = api.sim.now
        for _ in range(p.runs):
            yield from one_run()
        out["ps"] = api.sim.now - start

    proc = machine.spawn("bench", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**15)
    return _mib_per_s(p.runs * p.file_bytes, out["ps"])


# -- sweep decomposition (repro.runner) ---------------------------------------

def fig7_points(**size) -> List[Fig7Point]:
    """The six bars; ``size`` sets the point fields (paper scale by
    default)."""
    return [Fig7Point(system, op, shared, **size)
            for system, op, shared in FIG7_BARS]


def run_fig7_point(pt: Fig7Point) -> float:
    """MiB/s for one bar of Figure 7."""
    if pt.system == "linux":
        return _run_linux(pt)
    return _run_m3v(pt)


def reduce_fig7(points: List[Fig7Point],
                values: List[float]) -> Dict[str, float]:
    """MiB/s per bar name."""
    return {pt.name: v for pt, v in zip(points, values)}
