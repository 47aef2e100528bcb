"""Figure 7: file read/write throughput, M3v (shared/isolated) vs Linux.

2 MiB files, 4 KiB buffers, 64-block extents; 10 measured runs after 4
warmup runs (section 6.3).  "Shared" puts the pager, the file system
and the benchmark on one BOOM core; "isolated" gives each its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.core.exps.common import fpga_system, linux_system
from repro.mux.api import rendezvous
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


def _bench(fs, sim, p: Fig7Point) -> Generator:
    """The measured program of both systems: ``p.warmup`` then
    ``p.runs`` passes over the whole file in ``p.buf_bytes`` calls.
    ``fs`` is M3v's ``FsClient`` or the Linux libc (their open flags
    agree); returns the measured passes' simulated time."""
    chunk = b"\xcd" * p.buf_bytes

    def one_run():
        if p.op == "read":
            fd = yield from fs.open("/bench.dat", O_RDONLY)
            while True:
                data = yield from fs.read(fd, p.buf_bytes)
                if not data:
                    break
        else:
            fd = yield from fs.open("/bench.dat",
                                    O_WRONLY | O_CREAT | O_TRUNC)
            written = 0
            while written < p.file_bytes:
                yield from fs.write(fd, chunk)
                written += len(chunk)
        yield from fs.close(fd)

    for _ in range(p.warmup):
        yield from one_run()
    start = sim.now
    for _ in range(p.runs):
        yield from one_run()
    return sim.now - start


def _run_m3v(p: Fig7Point) -> float:
    plat = fpga_system()
    fs_tile = 1
    bench_tile = 1 if p.shared else 2
    pager_tile = 1 if p.shared else 3

    pager, _ = plat.run_proc(boot_pager(plat, tile=pager_tile))
    blocks = max(512, 4 * p.file_bytes // 4096)
    fs = plat.run_proc(boot_m3fs(plat, tile=fs_tile, blocks=blocks,
                                 max_extent_blocks=p.max_extent_blocks))
    if p.op == "read":
        fs.populate(plat.tiles[fs.region.mem_tile].dtu, "/bench.dat",
                    b"\xab" * p.file_bytes,
                    max_extent_blocks=p.max_extent_blocks)
    env: Dict = {}
    out: Dict = {}

    def bench(api):
        yield from rendezvous(api, env, "fs_eps")
        fsc = FsClient(api, *env["fs_eps"])
        out["ps"] = yield from _bench(fsc, api.sim, p)

    act = plat.run_proc(plat.controller.spawn("bench", bench_tile, bench,
                                              pager="pager"))
    env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
    plat.sim.run_until_event(act.exit_event, limit=10**15)
    return _mib_per_s(p.runs * p.file_bytes, out["ps"])


def _run_linux(p: Fig7Point) -> float:
    machine = linux_system()
    out: Dict = {}

    def prog(api):
        if p.op == "read":
            # M3v's image is populated at boot; Linux writes the file
            chunk = b"\xcd" * p.buf_bytes
            fd = yield from api.open("/bench.dat", O_CREAT | O_WRONLY)
            written = 0
            while written < p.file_bytes:
                yield from api.write(fd, chunk)
                written += len(chunk)
            yield from api.close(fd)
        out["ps"] = yield from _bench(api, api.sim, p)

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
