"""Ablation (section 3.5): TileMux-mediated vDTU access.

The paper's first design iteration had TileMux mediate every vDTU
access; it "degraded the performance of all communication by an order
of magnitude", motivating the endpoint activity tags.  We rebuild that
design and measure the same no-op RPC as Figure 6.
"""

from conftest import paper_scale, print_table

from repro.api import SystemConfig, build_system
from repro.core.exps.common import rendezvous
from repro.mux.mediated import MediatedActivityApi


def measure_remote_rpc(mediated: bool, iterations: int) -> float:
    plat = build_system(SystemConfig())
    if mediated:
        for tid in plat.proc_tile_ids:
            plat.mux(tid).api_class = MediatedActivityApi
    env, out = {}, {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data=0, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for _ in range(10):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        start = api.sim.now
        for _ in range(iterations):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        out["ps"] = (api.sim.now - start) / iterations
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**14)
    return out["ps"]


def test_ablation_mediated_vdtu(benchmark):
    iterations = 500 if paper_scale() else 100

    def run():
        return {
            "direct": measure_remote_rpc(False, iterations),
            "mediated": measure_remote_rpc(True, iterations),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    slowdown = data["mediated"] / data["direct"]
    rows = [
        f"direct vDTU access:   {data['direct'] / 1e6:8.1f} us per RPC",
        f"TileMux-mediated:     {data['mediated'] / 1e6:8.1f} us per RPC",
        f"slowdown: {slowdown:.1f}x  (paper: 'an order of magnitude')",
    ]
    print_table("Ablation: mediated vDTU (section 3.5)", rows)
    assert slowdown > 5.0
