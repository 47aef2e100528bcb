#!/usr/bin/env python3
"""The autonomous accelerator pipeline of Figure 2 (background, §2.2).

``sh $ decode in.png | fft | mul | ifft > out.raw``

A software `decode` stage on a general-purpose tile feeds three
fixed-function accelerator tiles chained *directly* to each other —
after the controller wires the channels, no OS tile touches the data
path.  (M3v keeps this M3/M3x capability; multiplexing the
accelerators themselves remains future work, section 8.)

Run:  python examples/accelerator_pipeline.py
"""

import numpy as np

from repro.api import SystemConfig, build_system
from repro.dtu.dtu import Dtu
from repro.tiles.accelerator import EP_IN, StreamAccelerator

CHUNK = 2048  # samples per pipeline message


def fft_logic(data: bytes) -> bytes:
    x = np.frombuffer(data, dtype=np.complex64)
    return np.fft.fft(x).astype(np.complex64).tobytes()


def mul_logic(kernel: np.ndarray):
    def logic(data: bytes) -> bytes:
        x = np.frombuffer(data, dtype=np.complex64)
        return (x * kernel[: len(x)]).astype(np.complex64).tobytes()
    return logic


def ifft_logic(data: bytes) -> bytes:
    x = np.frombuffer(data, dtype=np.complex64)
    return np.fft.ifft(x).astype(np.complex64).tobytes()


def main() -> None:
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1))
    sim = plat.sim

    # three accelerator tiles, attached to the same NoC
    base = max(plat.tiles) + 1
    kernel = np.exp(-np.linspace(0, 4, CHUNK // 8)).astype(np.complex64)
    accels = {}
    for i, (name, logic) in enumerate([("fft", fft_logic),
                                       ("mul", mul_logic(kernel)),
                                       ("ifft", ifft_logic)]):
        tile_id = base + i
        plat.fabric.topology.attach_tile(tile_id, i % 4)
        dtu = Dtu(sim, tile_id, plat.fabric)
        accels[name] = StreamAccelerator(sim, dtu, name, logic)
        accels[name].wire_input()
        accels[name].bind_context()

    # sink on a general-purpose tile collects the result
    results = []
    env = {}

    def sink(api):
        while "sink_rep" not in env:
            yield api.sim.timeout(1_000_000)
        for _ in range(4):
            msg = yield from api.recv(env["sink_rep"])
            results.append(np.frombuffer(msg.data, dtype=np.complex64))
            yield from api.ack(env["sink_rep"], msg)

    def decode(api):
        while "decode_out" not in env:
            yield api.sim.timeout(1_000_000)
        rng = np.random.default_rng(3)
        for i in range(4):
            image_row = rng.normal(0, 1, CHUNK // 8).astype(np.complex64)
            yield from api.compute(20_000)  # the PNG-decode stand-in
            yield from api.send(env["decode_out"], image_row.tobytes(),
                                image_row.nbytes)
            print(f"  decode: chunk {i} -> fft at "
                  f"t={api.sim.now / 1e6:8.1f}us")

    ctrl = plat.controller
    sink_act = plat.run_proc(ctrl.spawn("sink", 1, sink))
    decode_act = plat.run_proc(ctrl.spawn("decode", 0, decode))

    # wire: decode -> fft -> mul -> ifft -> sink  (controller-established)
    sink_rep = ctrl.alloc_ep(1)
    from repro.dtu.endpoints import ReceiveEndpoint, SendEndpoint
    plat.run_proc(ctrl.config_ep(1, sink_rep, ReceiveEndpoint(
        act=sink_act.act_id, slots=8, slot_size=4096)))
    accels["ifft"].wire_output(1, sink_rep)
    accels["mul"].wire_output(accels["ifft"].dtu.tile, EP_IN)
    accels["fft"].wire_output(accels["mul"].dtu.tile, EP_IN)
    decode_out = ctrl.alloc_ep(0)
    plat.run_proc(ctrl.config_ep(0, decode_out, SendEndpoint(
        act=decode_act.act_id, dst_tile=accels["fft"].dtu.tile,
        dst_ep=EP_IN, max_msg_size=4096, credits=4, max_credits=4)))
    env.update(sink_rep=sink_rep, decode_out=decode_out)

    plat.sim.run_until_event(sink_act.exit_event, limit=10**13)
    print(f"\npipeline done at t={plat.sim.now / 1e6:.1f}us; "
          f"stages processed: "
          f"{[(n, a.processed) for n, a in accels.items()]}")

    # verify: the chain computed ifft(fft(x) * kernel) = convolution
    rng = np.random.default_rng(3)
    x0 = rng.normal(0, 1, CHUNK // 8).astype(np.complex64)
    expected = np.fft.ifft(np.fft.fft(x0) * kernel).astype(np.complex64)
    assert np.allclose(results[0], expected, atol=1e-4)
    print("numerical check: ifft(fft(x) * k) matches numpy reference")


if __name__ == "__main__":
    main()
