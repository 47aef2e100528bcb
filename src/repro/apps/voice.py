"""The voice assistant of section 6.5.1.

Components and trust mapping, exactly as the paper lays them out:

1. **scanner** — continuously scans room audio for the trigger word.
   Runs alone on a simple Rocket tile for strong isolation; uses no
   pager (all pages mapped up front to minimise its TCB).
2. **compressor** — receives the selected audio samples from the
   scanner *by delegated memory capability*, compresses them
   losslessly (Rice coding, the libFLAC stand-in) and ships them to
   the cloud via UDP.
3. **net** — the network stack.
4. **pager** — manages the address spaces of compressor and net.

Placement is the experiment's knob: compressor+net+pager either share
one BOOM tile ("shared") or get a dedicated tile each ("isolated").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator

from repro.apps.compress import (
    COMPRESS_CYCLES_PER_SAMPLE,
    SCAN_CYCLES_PER_SAMPLE,
    detect_trigger,
    rice_compress,
)
from repro.kernel.protocol import Syscall
from repro.services.net import NetClient

if TYPE_CHECKING:  # numpy loads only when the codec runs
    import numpy as np

FRAME_SAMPLES = 2048           # scanner analysis frame
WINDOW_SAMPLES = 16384         # audio shipped per trigger
DATAGRAM_BYTES = 1024
CLOUD_PORT = 9000


def scanner_program(env: Dict, audio: np.ndarray, triggers_expected: int):
    """Factory: the scanner activity."""

    def program(api) -> Generator:
        while "scan_sep" not in env:
            yield api.sim.timeout(1_000_000)
        sent = 0
        pos = 0
        write_off = 0
        while pos + FRAME_SAMPLES <= len(audio) and sent < triggers_expected:
            frame = audio[pos:pos + FRAME_SAMPLES]
            yield from api.compute(SCAN_CYCLES_PER_SAMPLE * FRAME_SAMPLES)
            if detect_trigger(frame):
                window = audio[pos:pos + WINDOW_SAMPLES]
                data = window.astype("<i2").tobytes()
                # stage the samples in the shared audio buffer ...
                yield from api.write(env["audio_ep"], write_off, data)
                # ... and delegate a capability to exactly that range
                sel = yield from api.syscall(Syscall.DERIVE_MGATE, {
                    "mgate_sel": env["audio_sel"], "offset": write_off,
                    "size": len(data)})
                comp_sel = yield from api.syscall(Syscall.DELEGATE, {
                    "sel": sel, "target_act": env["compressor_act"]})
                yield from api.send(env["scan_sep"],
                                    {"sel": comp_sel, "bytes": len(data),
                                     "samples": len(window)}, 64)
                write_off = (write_off + len(data)) % env["audio_buf_bytes"]
                sent += 1
                pos += WINDOW_SAMPLES
            else:
                pos += FRAME_SAMPLES
        env["scanner_done"] = api.sim.now

    return program


def compressor_program(env: Dict, audio: np.ndarray, triggers_expected: int):
    """Factory: the compressor activity (pager-managed heap)."""
    import numpy as np

    def program(api) -> Generator:
        while "comp_rep" not in env:
            yield api.sim.timeout(1_000_000)
        netc = NetClient(api, *env["net_eps"])
        sid = yield from netc.socket()
        yield from netc.bind(sid)
        out_buf = api.alloc_buf(64 * 1024)
        done = 0
        total_in = 0
        total_out = 0
        while done < triggers_expected:
            msg = yield from api.recv(env["comp_rep"])
            yield from api.ack(env["comp_rep"], msg)
            grant = msg.data
            ep = yield from api.syscall(Syscall.ACTIVATE,
                                        {"sel": grant["sel"],
                                         "ep_id": env["comp_data_ep"]})
            raw = yield from api.read(ep, 0, grant["bytes"])
            samples = np.frombuffer(raw, dtype="<i2")
            yield from api.compute(COMPRESS_CYCLES_PER_SAMPLE * len(samples))
            encoded = rice_compress(samples)
            # the output buffer is demand-paged through the pager
            for page_off in range(0, min(len(encoded), 64 * 1024), 4096):
                yield from api.touch(out_buf + page_off)
            for off in range(0, len(encoded), DATAGRAM_BYTES):
                chunk_len = min(DATAGRAM_BYTES, len(encoded) - off)
                yield from netc.sendto(sid, CLOUD_PORT, None, chunk_len)
            total_in += len(raw)
            total_out += len(encoded)
            done += 1
        env["compressor_done"] = api.sim.now
        env["bytes_in"] = total_in
        env["bytes_out"] = total_out

    return program
