#!/usr/bin/env python3
"""Quickstart: build an M3v platform, run two communicating activities.

Demonstrates the core public API:

* :func:`repro.api.build_system` assembles tiles, NoC, vDTUs, TileMux
  instances and the controller;
* activities are generator programs spawned through the controller;
* communication channels are capability-backed DTU endpoints;
* the same program works whether the partners share a tile or not —
  transparent multiplexing (section 3.9 of the paper).

Run:  python examples/quickstart.py
"""

from repro.api import SystemConfig, build_system
from repro.mux.api import rendezvous


def main() -> None:
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1))
    env = {}
    results = {}

    def server(api):
        # wait until the channel below is wired
        yield from rendezvous(api, env, "server_rgate")
        for _ in range(2):
            msg = yield from api.recv(env["server_rgate"])
            print(f"  [server] t={api.sim.now / 1e6:9.1f}us "
                  f"got {msg.data!r}")
            yield from api.reply(env["server_rgate"], msg,
                                 data=msg.data.upper(), size=32)

    def client(api):
        yield from rendezvous(api, env, "client_sgate")
        for word in ("hello", "world"):
            start = api.sim.now
            answer = yield from api.call(env["client_sgate"],
                                         env["client_reply"], word, 32)
            rtt_us = (api.sim.now - start) / 1e6
            print(f"  [client] t={api.sim.now / 1e6:9.1f}us "
                  f"{word!r} -> {answer!r}  ({rtt_us:.1f} us)")
            results[word] = answer

    ctrl = plat.controller
    # spawn on different tiles; change both to the same tile id to see
    # TileMux multiplex them (the RPC then costs ~3x more, Figure 6)
    server_act = plat.run_proc(ctrl.spawn("server", tile_id=1, program=server))
    client_act = plat.run_proc(ctrl.spawn("client", tile_id=0, program=client))

    sgate, rgate, reply = plat.run_proc(
        ctrl.wire_channel(client_act, server_act, credits=2))
    env.update(server_rgate=rgate, client_sgate=sgate, client_reply=reply)

    plat.sim.run_until_event(client_act.exit_event, limit=10**13)
    print(f"\nresults: {results}")
    print(f"simulated time: {plat.sim.now / 1e9:.3f} ms, "
          f"context switches: "
          f"{plat.stats.counter_value('tilemux/ctx_switches')}")
    assert results == {"hello": "HELLO", "world": "WORLD"}


if __name__ == "__main__":
    main()
