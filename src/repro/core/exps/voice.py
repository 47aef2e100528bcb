"""Section 6.5.1: the voice assistant, shared vs isolated placement.

The scanner runs alone on a Rocket core; compressor, net and pager run
either on one shared BOOM core or a dedicated BOOM core each.  Audio
goes out via UDP (the paper fell back from TCP to UDP, see the wire
model's loss knob).  Reported: end-to-end runtime and the sharing
overhead (paper: 384 ms isolated vs 398 ms shared, +3.6%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.compress import make_audio
from repro.apps.voice import (
    WINDOW_SAMPLES,
    compressor_program,
    scanner_program,
)
from repro.core.exps.common import fpga_system
from repro.dtu.endpoints import Perm
from repro.kernel.caps import CapKind, MGateObj
from repro.services.boot import boot_net, boot_pager, connect_net
from repro.tiles.costs import ROCKET

REPETITIONS = 1   # pipeline runs per placement, averaged by the reducer


@dataclass(frozen=True)
class VoicePoint:
    shared: bool
    rep: int                    # repetition index (averaged by the reducer)
    triggers: int = 8           # trigger words in the audio stream
    scanner_tile: int = 0       # the Rocket tile


def run_voice_point(p: VoicePoint) -> Dict[str, float]:
    """One end-to-end pipeline run: runtime (ms), bytes in and out,
    and the compression ratio."""
    plat = fpga_system(core_overrides={0: ROCKET})
    if p.shared:
        comp_tile = net_tile = pager_tile = 1
    else:
        comp_tile, net_tile, pager_tile = 2, 1, 3

    plat.run_proc(boot_pager(plat, tile=pager_tile))
    net = plat.run_proc(boot_net(plat, tile=net_tile))

    # audio with known trigger positions
    n_samples = p.triggers * 4 * WINDOW_SAMPLES
    trigger_at = [i * 4 * WINDOW_SAMPLES + WINDOW_SAMPLES // 4
                  for i in range(p.triggers)]
    audio = make_audio(n_samples, trigger_at=trigger_at)

    env: Dict = {}
    ctrl = plat.controller
    scanner = plat.run_proc(ctrl.spawn(
        "scanner", p.scanner_tile, scanner_program(env, audio, p.triggers)))
    compressor = plat.run_proc(ctrl.spawn(
        "compressor", comp_tile, compressor_program(env, audio, p.triggers),
        pager="pager"))

    # the scanner's staging buffer: an mgate in DRAM it can write and
    # derive per-trigger sub-capabilities from
    audio_buf_bytes = 4 * WINDOW_SAMPLES * 2
    region = ctrl.phys.alloc(audio_buf_bytes)
    audio_cap = ctrl.tables[scanner.act_id].insert(
        CapKind.MGATE, MGateObj(mem_tile=region.mem_tile, base=region.base,
                                size=region.size, perm=Perm.RW))
    audio_ep = plat.run_proc(ctrl.wire_memory(
        scanner, region.mem_tile, region.base, region.size))
    # scanner -> compressor message channel
    sep, rep, _ = plat.run_proc(ctrl.wire_channel(scanner, compressor,
                                                  slots=4, credits=2))
    env["net_eps"] = plat.run_proc(connect_net(plat, compressor, net))
    env["comp_data_ep"] = ctrl.alloc_ep(comp_tile)
    env.update(audio_ep=audio_ep, audio_sel=audio_cap.sel,
               audio_buf_bytes=audio_buf_bytes,
               compressor_act=compressor.act_id,
               comp_rep=rep)
    start = plat.sim.now
    env["scan_sep"] = sep  # publishing this starts the scanner

    plat.sim.run_until_event(compressor.exit_event, limit=10**16)
    elapsed_ms = (env["compressor_done"] - start) / 1e9
    return {"ms": elapsed_ms,
            "bytes_in": env["bytes_in"], "bytes_out": env["bytes_out"],
            "compression_ratio": env["bytes_in"] / max(1, env["bytes_out"])}


# -- sweep decomposition (repro.runner) ---------------------------------------

def voice_points(**size) -> List[VoicePoint]:
    """Each placement :data:`REPETITIONS` times; ``size`` sets the other
    point fields (paper scale by default)."""
    return [VoicePoint(shared, rep, **size)
            for shared in (False, True) for rep in range(REPETITIONS)]


def reduce_voice(points: List[VoicePoint],
                 values: List[Dict[str, float]]) -> Dict[str, float]:
    """Isolated/shared runtimes (ms) and the sharing overhead."""
    iso = [v["ms"] for pt, v in zip(points, values) if not pt.shared]
    sha = [v["ms"] for pt, v in zip(points, values) if pt.shared]
    isolated = sum(iso) / len(iso)
    shared = sum(sha) / len(sha)
    return {"isolated_ms": isolated, "shared_ms": shared,
            "overhead_pct": 100.0 * (shared - isolated) / isolated}
