"""Tests for accelerator tiles (M3 semantics, Figure 2 pipelines)."""

import pytest

from repro.api import SystemConfig, build_system
from repro.dtu.dtu import Dtu
from repro.dtu.endpoints import ReceiveEndpoint, SendEndpoint
from repro.mux.api import rendezvous
from repro.tiles.accelerator import EP_IN, StreamAccelerator


def platform_with_accels(n_accels, logics):
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1)).platform
    base = max(plat.tiles) + 1
    accels = []
    for i in range(n_accels):
        tile_id = base + i
        plat.fabric.topology.attach_tile(tile_id, i % 4)
        dtu = Dtu(plat.sim, tile_id, plat.fabric)
        accel = StreamAccelerator(plat.sim, dtu, f"a{i}", logics[i])
        accel.wire_input()
        accels.append(accel)
    return plat, accels


def run_pipeline(logics, inputs):
    """Feed ``inputs`` through a chain of accelerators; return outputs."""
    plat, accels = platform_with_accels(len(logics), logics)
    env, outputs = {}, []

    def sink(api):
        yield from rendezvous(api, env, "rep")
        for _ in inputs:
            msg = yield from api.recv(env["rep"])
            outputs.append(msg.data)
            yield from api.ack(env["rep"], msg)

    def source(api):
        yield from rendezvous(api, env, "out")
        for data in inputs:
            yield from api.send(env["out"], data, len(data))

    ctrl = plat.controller
    sink_act = plat.run_proc(ctrl.spawn("sink", 1, sink))
    src_act = plat.run_proc(ctrl.spawn("source", 0, source))
    rep = ctrl.alloc_ep(1)
    plat.run_proc(ctrl.config_ep(1, rep, ReceiveEndpoint(
        act=sink_act.act_id, slots=8, slot_size=4096)))
    # chain: source -> a0 -> a1 ... -> sink
    accels[-1].wire_output(1, rep)
    for upstream, downstream in zip(accels, accels[1:]):
        upstream.wire_output(downstream.dtu.tile, EP_IN)
    out = ctrl.alloc_ep(0)
    plat.run_proc(ctrl.config_ep(0, out, SendEndpoint(
        act=src_act.act_id, dst_tile=accels[0].dtu.tile, dst_ep=EP_IN,
        max_msg_size=4096, credits=4, max_credits=4)))
    env.update(rep=rep, out=out)
    plat.sim.run_until_event(sink_act.exit_event, limit=10**14)
    return outputs, accels


def test_single_accelerator_transforms_stream():
    outputs, accels = run_pipeline([bytes.upper], [b"abc", b"def"])
    assert outputs == [b"ABC", b"DEF"]
    assert accels[0].processed == 2


def test_chained_accelerators_compose():
    outputs, _ = run_pipeline([bytes.upper, lambda b: b[::-1]],
                              [b"pipeline"])
    assert outputs == [b"ENILEPIP"]


def test_accelerator_processing_takes_time():
    plat, accels = platform_with_accels(1, [lambda b: b])
    # larger payloads take longer at fixed bytes/ns
    small = accels[0].setup_ns + len(b"x") / accels[0].bytes_per_ns
    big = accels[0].setup_ns + 4096 / accels[0].bytes_per_ns
    assert big > small


def test_accelerator_single_context_enforced():
    plat, accels = platform_with_accels(1, [lambda b: b])
    accels[0].bind_context()
    with pytest.raises(RuntimeError):
        accels[0].bind_context()
