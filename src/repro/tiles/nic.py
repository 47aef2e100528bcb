"""NIC device, Ethernet wire and the remote peer host.

The FPGA platform attaches an AXI-Ethernet NIC to one selected
processing tile (section 4.1); the net service always runs on that
tile and drives the NIC through DMA and interrupts (section 4.4).
The wire connects to a fast external machine (an AMD Ryzen in the
paper's benchmarks) which echoes or sinks packets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.sim import Simulator

PS_PER_US = 1_000_000

ETH_HEADER = 14
IP_HEADER = 20
UDP_HEADER = 8
MIN_FRAME = 64
UDP_OVERHEAD = ETH_HEADER + IP_HEADER + UDP_HEADER


@dataclass
class EthFrame:
    """One Ethernet frame carrying a UDP datagram."""

    payload: Any
    size: int                 # UDP payload bytes
    src_port: int = 0
    dst_port: int = 0

    @property
    def wire_bytes(self) -> int:
        return max(MIN_FRAME, self.size + UDP_OVERHEAD)


class EthernetWire:
    """A full-duplex point-to-point gigabit link with optional loss.

    The loss knob reproduces the methodological footnote of section
    6.5.1: with real TCP the FPGA/Ryzen speed mismatch caused packet
    drops, so the paper (and we) measure UDP and optionally simulate
    the lossy behaviour.
    """

    def __init__(self, sim: Simulator, latency_us: float = 2.0,
                 gbps: float = 1.0, drop_prob: float = 0.0,
                 seed: int = 42):
        self.sim = sim
        self.latency_ps = round(latency_us * PS_PER_US)
        self.bytes_per_ps = gbps / 8 / 1e3  # bytes per picosecond
        self.drop_prob = drop_prob
        self._rng = random.Random(seed)
        self._busy_until = {"up": 0, "down": 0}
        self.to_host: Optional[Callable[[EthFrame], None]] = None
        self.to_device: Optional[Callable[[EthFrame], None]] = None
        self.dropped = 0
        self.transferred = 0

    def _serialize_ps(self, frame: EthFrame) -> int:
        return round(frame.wire_bytes / self.bytes_per_ps)

    def transmit(self, frame: EthFrame, up: bool) -> None:
        """Put a frame on the wire; 'up' means device -> host."""
        if self.drop_prob and self._rng.random() < self.drop_prob:
            self.dropped += 1
            return
        direction = "up" if up else "down"
        start = max(self.sim.now, self._busy_until[direction])
        self._busy_until[direction] = start + self._serialize_ps(frame)
        arrival = self._busy_until[direction] + self.latency_ps
        self.transferred += 1
        self.sim.process(self._deliver(frame, up, arrival - self.sim.now),
                         name="eth-frame")

    def _deliver(self, frame: EthFrame, up: bool, delay: int):
        yield delay
        sink = self.to_host if up else self.to_device
        if sink is not None:
            sink(frame)


class NicDevice:
    """The AXI-Ethernet NIC on the net tile.

    RX frames land in a descriptor ring; the device wakes the driver
    activity (interrupt-driven access, section 4.1).
    """

    RING_SLOTS = 32

    def __init__(self, sim: Simulator, wire: EthernetWire):
        self.sim = sim
        self.wire = wire
        wire.to_device = self._on_rx
        self.rx_queue: List[EthFrame] = []
        self.rx_overruns = 0
        self._wake: Optional[Callable[[], None]] = None

    def attach_driver(self, wake: Callable[[], None]) -> None:
        """Register the driver's wake callback (the interrupt line)."""
        self._wake = wake

    def _on_rx(self, frame: EthFrame) -> None:
        if len(self.rx_queue) >= self.RING_SLOTS:
            self.rx_overruns += 1
            return
        self.rx_queue.append(frame)
        if self._wake is not None:
            self._wake()

    @property
    def has_rx(self) -> bool:
        return bool(self.rx_queue)

    def pop_rx(self) -> Optional[EthFrame]:
        return self.rx_queue.pop(0) if self.rx_queue else None

    def transmit(self, frame: EthFrame) -> None:
        self.wire.transmit(frame, up=True)


class RemoteHost:
    """The machine on the other end of the cable (AMD Ryzen 7 2700X).

    Fast relative to the 80 MHz FPGA cores: a fixed small processing
    delay per packet.  ``echo_ports`` answer with the same payload;
    everything else is sunk (and counted) — the voice assistant and
    YCSB benchmarks only ship data out.
    """

    def __init__(self, sim: Simulator, wire: EthernetWire,
                 proc_us: float = 25.0):
        self.sim = sim
        self.wire = wire
        wire.to_host = self._on_frame
        self.proc_ps = round(proc_us * PS_PER_US)
        self.echo_ports = set()
        self.sunk_frames = 0
        self.sunk_bytes = 0
        self.received: List[EthFrame] = []

    def _on_frame(self, frame: EthFrame) -> None:
        self.sim.process(self._handle(frame), name="remote-host")

    def _handle(self, frame: EthFrame):
        yield self.proc_ps
        if frame.dst_port in self.echo_ports:
            self.wire.transmit(EthFrame(payload=frame.payload,
                                        size=frame.size,
                                        src_port=frame.dst_port,
                                        dst_port=frame.src_port), up=False)
        else:
            self.sunk_frames += 1
            self.sunk_bytes += frame.size
            if len(self.received) < 10_000:
                self.received.append(frame)
