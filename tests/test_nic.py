"""Unit tests for the NIC, the Ethernet wire and the remote host."""

import pytest

from repro.sim import Simulator
from repro.tiles.nic import (
    UDP_OVERHEAD,
    EthernetWire,
    EthFrame,
    NicDevice,
    RemoteHost,
)


def test_frame_wire_size_has_min_and_headers():
    assert EthFrame(None, size=1).wire_bytes == 64          # min frame
    assert EthFrame(None, size=1000).wire_bytes == 1000 + UDP_OVERHEAD


def test_wire_delivers_up_and_down():
    sim = Simulator()
    wire = EthernetWire(sim)
    got = {"up": [], "down": []}
    wire.to_host = got["up"].append
    wire.to_device = got["down"].append
    wire.transmit(EthFrame(b"a", 1, dst_port=9), up=True)
    wire.transmit(EthFrame(b"b", 1, dst_port=9), up=False)
    sim.run()
    assert got["up"][0].payload == b"a"
    assert got["down"][0].payload == b"b"


def test_wire_latency_and_serialization():
    sim = Simulator()
    wire = EthernetWire(sim, latency_us=10.0, gbps=1.0)
    arrivals = []
    wire.to_host = lambda f: arrivals.append(sim.now)
    big = EthFrame(None, size=1458)  # 1500B on the wire = 12 us at 1 Gb/s
    wire.transmit(big, up=True)
    wire.transmit(big, up=True)
    sim.run()
    assert arrivals[0] == pytest.approx(22_000_000, rel=0.01)  # 12+10 us
    # second frame serializes behind the first
    assert arrivals[1] - arrivals[0] == pytest.approx(12_000_000, rel=0.01)


def test_wire_loss_is_deterministic_per_seed():
    sim = Simulator()
    wire = EthernetWire(sim, drop_prob=0.5, seed=123)
    wire.to_host = lambda f: None
    for _ in range(100):
        wire.transmit(EthFrame(None, 64), up=True)
    sim.run()
    assert 20 <= wire.dropped <= 80
    assert wire.dropped + wire.transferred == 100


def test_nic_ring_overflow_drops():
    sim = Simulator()
    wire = EthernetWire(sim)
    nic = NicDevice(sim, wire)
    for _ in range(NicDevice.RING_SLOTS + 5):
        wire.transmit(EthFrame(None, 64, dst_port=1), up=False)
    sim.run()
    assert len(nic.rx_queue) == NicDevice.RING_SLOTS
    assert nic.rx_overruns == 5


def test_nic_wakes_driver_on_rx():
    sim = Simulator()
    wire = EthernetWire(sim)
    nic = NicDevice(sim, wire)
    wakes = []
    nic.attach_driver(lambda: wakes.append(sim.now))
    wire.transmit(EthFrame(None, 64, dst_port=1), up=False)
    sim.run()
    assert len(wakes) == 1
    assert nic.pop_rx() is not None
    assert nic.pop_rx() is None


def test_remote_host_echoes_registered_ports_only():
    sim = Simulator()
    wire = EthernetWire(sim)
    host = RemoteHost(sim, wire, proc_us=5.0)
    host.echo_ports.add(7)
    echoed = []
    wire.to_device = echoed.append
    wire.transmit(EthFrame(b"ping", 4, src_port=100, dst_port=7), up=True)
    wire.transmit(EthFrame(b"sink", 4, src_port=100, dst_port=8), up=True)
    sim.run()
    assert len(echoed) == 1
    assert echoed[0].dst_port == 100 and echoed[0].payload == b"ping"
    assert host.sunk_frames == 1 and host.sunk_bytes == 4


def test_remote_host_processing_delay():
    sim = Simulator()
    wire = EthernetWire(sim, latency_us=0.0)
    host = RemoteHost(sim, wire, proc_us=25.0)
    host.echo_ports.add(7)
    times = []
    wire.to_device = lambda f: times.append(sim.now)
    wire.transmit(EthFrame(b"x", 1, src_port=1, dst_port=7), up=True)
    sim.run()
    # serialization both ways + 25us processing
    assert times[0] >= 25_000_000
