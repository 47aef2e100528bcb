"""Figure 9: scalability of context-switch-heavy workloads, M3x vs M3v.

The gem5 configuration of section 6.4: 3 GHz out-of-order x86 cores in
every tile, one traceplayer + one file-system instance *per tile* (so
every file-system call is a tile-local RPC — the context-switch-heavy
pattern), scaled from 1 to 12 tiles.  The y-axis is aggregate
application runs per second after one warmup run.

A point may go past the paper's gem5 ceiling (the repo benchmark runs
64 tiles): memory shape scales with the tile count past 12 tiles (each
tile needs its ~8 MiB activity window plus a per-tile m3fs image); the
1–12-tile points keep the paper's exact 2×64 MiB shape so their event
counts stay comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.api import SystemConfig, build_system
from repro.apps.traceplayer import TracePlayer
from repro.posix.vfs import M3vVfs
from repro.services.boot import boot_m3fs, connect_fs
from repro.services.m3fs import FsClient
from repro.tiles.costs import X86_GEM5
from repro.workloads.traces import find_trace, find_tree_spec, sqlite_trace

_MIB = 1024 * 1024
TILE_COUNTS = (1, 2, 4, 8, 12)  # section 6.4's x-axis


@dataclass(frozen=True)
class Fig9Point:
    system: str                # "m3v" | "m3x"
    n_tiles: int
    trace: str = "find"        # find | sqlite
    runs: int = 2              # measured runs per tile (after 1 warmup)
    # trace shape (paper scale: find 24x40, sqlite 32 transactions)
    find_dirs: int = 24
    find_files: int = 40
    sqlite_txns: int = 32
    fs_blocks: int = 512

    def make_trace(self):
        if self.trace == "find":
            return find_trace(self.find_dirs, self.find_files)
        if self.trace == "sqlite":
            return sqlite_trace(self.sqlite_txns)
        raise ValueError(f"unknown trace {self.trace!r}")


def _mem_shape(n_tiles: int):
    """(n_mem_tiles, dram_bytes) for ``n_tiles`` processing tiles.

    The paper's 2×64 MiB shape up to its 12-tile ceiling (keeping those
    points byte-comparable with the committed trajectory); beyond that,
    one memory tile per 16 processing tiles sized for each tile's
    activity window + m3fs image with 2× headroom.
    """
    if n_tiles <= 12:
        return 2, 64 * _MIB
    n_mem = max(2, (n_tiles + 15) // 16)
    dram = ((n_tiles * 20 * _MIB) // n_mem + _MIB - 1) // _MIB * _MIB
    return n_mem, max(64 * _MIB, dram)


def gem5_sysconfig(system: str, n_tiles: int) -> SystemConfig:
    n_mem, dram = _mem_shape(n_tiles)
    # The controller wires one send EP per tile above EP_DYN_BASE; past
    # ~125 tiles that outgrows the Table-1 128-entry register file, so
    # grow it to the next power of two (hardware scale-up, same idea as
    # the extra memory tiles).
    overrides = {}
    if n_tiles + 16 > 128:
        overrides["num_endpoints"] = 1 << (n_tiles + 16 - 1).bit_length()
    return SystemConfig(kind=system, n_proc_tiles=n_tiles,
                        proc_core=X86_GEM5, controller_core=X86_GEM5,
                        n_mem_tiles=n_mem, dram_bytes=dram,
                        dtu_overrides=overrides)


def _populate(fs, p: Fig9Point) -> None:
    if p.trace == "find":
        dirs, files = find_tree_spec(p.find_dirs, p.find_files)
        for d in dirs:
            fs.image.mkdir(d)
        for f in files:
            fs.image.create(f)


def run_fig9_point(p: Fig9Point) -> float:
    """Aggregate runs/s for one (system, tile count) curve point."""
    n_tiles = p.n_tiles
    plat = build_system(gem5_sysconfig(p.system, n_tiles))
    trace = p.make_trace()
    results: Dict[int, Dict[str, int]] = {}
    players = []

    for tile in range(n_tiles):
        fs = plat.run_proc(boot_m3fs(plat, tile=tile, blocks=p.fs_blocks,
                                     name=f"m3fs{tile}"))
        _populate(fs, p)
        env: Dict = {}
        out: Dict = {}
        results[tile] = out

        def bench(api, env=env, out=out):
            while "fs_eps" not in env:
                yield api.sim.timeout(1_000_000)
            fsc = FsClient(api, *env["fs_eps"])
            player = TracePlayer(M3vVfs(fsc), api.compute)

            def reset():
                if p.trace == "sqlite":
                    yield from fsc.unlink("/test.db")

            yield from player.play(trace)      # warmup
            yield from reset()
            start = api.sim.now
            for _ in range(p.runs):
                yield from player.play(trace)
                yield from reset()
            out["ps"] = api.sim.now - start

        act = plat.run_proc(plat.controller.spawn(f"player{tile}", tile,
                                                  bench))
        env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
        players.append(act)

    for act in players:
        plat.sim.run_until_event(act.exit_event, limit=10**16)
    return sum(p.runs / (out["ps"] / 1e12) for out in results.values())


# -- sweep decomposition (repro.runner) ---------------------------------------

def fig9_points(tile_counts=TILE_COUNTS, **size) -> List[Fig9Point]:
    """Both curves over ``tile_counts``; ``size`` sets the other point
    fields (paper scale, the find trace, by default)."""
    return [Fig9Point(system, n, **size)
            for system in ("m3v", "m3x") for n in tile_counts]


def reduce_fig9(points: List[Fig9Point],
                values: List[float]) -> Dict[str, Dict[int, float]]:
    """{system -> {n_tiles -> aggregate runs/s}}."""
    out: Dict[str, Dict[int, float]] = {"m3v": {}, "m3x": {}}
    for pt, v in zip(points, values):
        out[pt.system][pt.n_tiles] = v
    return out
