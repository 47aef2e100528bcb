"""Unit tests for the NoC: topology, latency, bandwidth, backpressure."""

import pytest

from repro.noc import NocFabric, NocParams, Packet, PacketKind, StarMeshTopology
from repro.noc.topology import SingleRouterTopology
from repro.sim import Simulator


def make_fabric(n_tiles=8, params=None):
    sim = Simulator()
    topo = StarMeshTopology(range(n_tiles))
    fabric = NocFabric(sim, topo, params=params)
    inboxes = {t: fabric.attach(t) for t in range(n_tiles)}
    return sim, fabric, inboxes


# -- topology ------------------------------------------------------------------


def test_star_mesh_has_four_routers():
    topo = StarMeshTopology(range(8))
    assert topo.routers == [0, 1, 2, 3]


def test_star_mesh_round_robin_placement():
    topo = StarMeshTopology(range(8))
    assert topo.router_of(0) == 0
    assert topo.router_of(5) == 1


def test_router_path_same_router():
    topo = StarMeshTopology(range(8))
    assert topo.router_path(2, 2) == [2]


def test_router_path_adjacent():
    topo = StarMeshTopology(range(8))
    assert topo.router_path(0, 1) == [0, 1]


def test_router_path_diagonal_two_hops():
    topo = StarMeshTopology(range(8))
    path = topo.router_path(0, 3)
    assert len(path) == 3 and path[0] == 0 and path[-1] == 3


def test_hop_count_includes_tile_links():
    topo = StarMeshTopology(range(8))
    # same router: tile->router->tile
    assert topo.hops(0, 4) == 2
    # adjacent routers: + 1 router link
    assert topo.hops(0, 1) == 3


def test_explicit_placement_respected():
    topo = StarMeshTopology([10, 11], placement={10: 3, 11: 3})
    assert topo.router_of(10) == 3 and topo.hops(10, 11) == 2


def test_duplicate_tile_attachment_rejected():
    topo = StarMeshTopology(range(4))
    with pytest.raises(ValueError):
        topo.attach_tile(0, 1)


def test_unknown_router_rejected():
    topo = SingleRouterTopology(range(2))
    with pytest.raises(ValueError):
        topo.attach_tile(99, 7)


# -- packets -------------------------------------------------------------------


def test_packet_wire_size_includes_header():
    p = Packet(PacketKind.MSG, src=0, dst=1, size=64)
    assert p.wire_size == 80


def test_packet_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(PacketKind.MSG, src=0, dst=1, size=-1)


def test_response_packet_swaps_endpoints_and_keeps_tag():
    p = Packet(PacketKind.READ_REQ, src=2, dst=5, size=0, tag=77)
    r = p.response_to(PacketKind.READ_RESP, size=128)
    assert (r.src, r.dst, r.tag) == (5, 2, 77)


# -- fabric delivery -----------------------------------------------------------


def test_delivery_to_inbox():
    sim, fabric, inboxes = make_fabric()
    pkt = Packet(PacketKind.MSG, src=0, dst=1, size=32, payload="hi")
    got = []

    def receiver():
        got.append((yield inboxes[1].get()))

    sim.process(receiver())
    fabric.send(pkt)
    sim.run()
    assert got and got[0].payload == "hi"


def test_send_to_unattached_tile_raises():
    sim, fabric, _ = make_fabric(n_tiles=4)
    with pytest.raises(ValueError):
        fabric.send(Packet(PacketKind.MSG, src=0, dst=99))


def test_latency_scales_with_hops():
    sim, fabric, inboxes = make_fabric()
    times = {}

    def receiver(tile):
        yield inboxes[tile].get()
        times[tile] = sim.now

    # tile 4 shares router 0 with tile 0; tile 3 is on the diagonal router
    sim.process(receiver(4))
    sim.process(receiver(3))
    fabric.send(Packet(PacketKind.MSG, src=0, dst=4, size=16))
    fabric.send(Packet(PacketKind.MSG, src=0, dst=3, size=16))
    sim.run()
    assert times[3] > times[4]


def test_tile_to_tile_latency_is_dozens_of_ns():
    # Paper: "tile-to-tile latency within our on-chip network is dozens
    # of nanoseconds".
    sim, fabric, inboxes = make_fabric()
    arrival = []

    def receiver():
        yield inboxes[3].get()
        arrival.append(sim.now)

    sim.process(receiver())
    fabric.send(Packet(PacketKind.MSG, src=0, dst=3, size=16))
    sim.run()
    ns = arrival[0] / 1000
    assert 10 <= ns <= 100


def test_link_serialization_delays_second_packet():
    params = NocParams(hop_latency_ps=1000, bytes_per_ns=1)  # slow links
    sim, fabric, inboxes = make_fabric(params=params)
    arrivals = []

    def receiver():
        for _ in range(2):
            pkt = yield inboxes[4].get()
            arrivals.append((pkt.pid, sim.now))

    sim.process(receiver())
    a = Packet(PacketKind.MSG, src=0, dst=4, size=1000)
    b = Packet(PacketKind.MSG, src=0, dst=4, size=1000)
    fabric.send(a)
    fabric.send(b)
    sim.run()
    t_a = dict(arrivals)[a.pid]
    t_b = dict(arrivals)[b.pid]
    # second packet waits for the first on the shared injection link
    assert t_b >= t_a + params.transfer_ps(a.wire_size)


def test_backpressure_blocks_when_inbox_full():
    params = NocParams(tile_queue_depth=2)
    sim, fabric, inboxes = make_fabric(params=params)
    delivered = []
    for i in range(5):
        fabric.send(Packet(PacketKind.MSG, src=0, dst=4, size=8, tag=i))
    # nobody consumes: run and observe only queue_depth packets delivered
    sim.run(until=10_000_000)
    assert len(inboxes[4]) == 2

    def consumer():
        while True:
            pkt = yield inboxes[4].get()
            delivered.append(pkt.tag)
            if len(delivered) == 5:
                return

    sim.process(consumer())
    sim.run()
    assert sorted(delivered) == [0, 1, 2, 3, 4]


def test_fabric_counts_traffic():
    sim, fabric, inboxes = make_fabric()

    def consumer():
        yield inboxes[1].get()

    sim.process(consumer())
    fabric.send(Packet(PacketKind.MSG, src=0, dst=1, size=100))
    sim.run()
    assert sim.stats.counter_value("noc/packets") == 1
    assert sim.stats.counter_value("noc/bytes") == 116


def test_latency_estimate_matches_uncontended_delivery():
    sim, fabric, inboxes = make_fabric()
    est = fabric.latency_estimate_ps(0, 1, 16)
    arrival = []

    def receiver():
        yield inboxes[1].get()
        arrival.append(sim.now)

    sim.process(receiver())
    fabric.send(Packet(PacketKind.MSG, src=0, dst=1, size=16))
    sim.run()
    assert arrival[0] == est
