"""The NoC fabric: links with bandwidth and backpressure.

Time base: the whole platform simulation runs in integer **picoseconds**
so tiles with different clock frequencies (100 MHz Rocket, 80 MHz BOOM,
3 GHz gem5 x86) compose without rounding drift.

Each directed link serializes packets (``wire_size / bandwidth``) and
adds a per-hop latency.  Every tile attachment has a bounded input
queue; when it fills up, deliveries stall the upstream link — this is
the packet-based flow control that resolves vDTU core-request queue
overruns (section 3.8 of the paper).

Two transfer implementations share the same timing recurrence
(``start = max(now, link.busy_until); busy_until = start + transfer;
arrive = start + transfer + hop_latency``):

* the **batched** path (default) reserves every link on the packet's
  route eagerly at injection time and schedules a single arrival event,
  so an n-hop transfer costs one queue entry instead of a Process plus
  n timeout events;
* the **lazy** path (``batch_hops=False`` or ``REPRO_NOC_BATCH=0``)
  walks the route hop by hop in a generator Process, reserving each
  link only when the packet reaches it.

The two differ when packets contend for a link.  The batched path
makes a packet injected later wait behind a reservation for a packet
that has not reached that link yet; the lazy path serves each link in
the order packets reach it.  The committed golden traces (fig6/fig8)
are identical under both, and fig9's find is within 0.05%, but fig9's
multi-tile SQLite points are not: the batched path gives 6–13% fewer
runs/s on M³v and 4–15% fewer on M³x (EXPERIMENTS.md, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from repro.sim import NO_TILE, Channel, Event, Simulator, envcfg
from repro.noc.packet import HEADER_BYTES, Packet
from repro.noc.topology import Topology

PS_PER_NS = 1_000


@dataclass(frozen=True)
class NocParams:
    """Physical parameters of the interconnect."""

    hop_latency_ps: int = 8_000         # per link traversal (8 ns)
    bytes_per_ns: int = 8               # link bandwidth
    tile_queue_depth: int = 16          # per-tile input buffer (packets)

    def transfer_ps(self, wire_bytes: int) -> int:
        """Serialization delay of a packet on one link."""
        return (wire_bytes * PS_PER_NS + self.bytes_per_ns - 1) // self.bytes_per_ns

    def lookahead_ps(self) -> int:
        """Conservative lookahead bound for the cross-tile causality
        check (:mod:`repro.sim.parallel`).

        A packet crossing tiles traverses at least the injection and
        the ejection link; each costs the serialization delay of a
        header-only packet plus the per-hop latency.  Anything a tile
        does at time ``t`` can therefore reach another tile no earlier
        than ``t + lookahead_ps()``.  (Router hops and payload bytes
        only push arrivals later; contention pushes them later still.)
        Derivation: DESIGN.md §15.
        """
        per_link = self.transfer_ps(HEADER_BYTES) + self.hop_latency_ps
        return 2 * per_link


class _Link:
    """A directed link: FIFO serialization with a busy-until horizon."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0


class _Arrival(Event):
    """Batched-path arrival event: carries the in-flight packet state.

    One instance replaces the per-packet transfer Process; the two
    callback methods are bound methods of the event itself, so
    injecting a packet allocates no closures.
    """

    __slots__ = ("fabric", "packet", "wire", "inbox")

    def __init__(self, sim, fabric: "NocFabric", packet: Packet, wire: int):
        Event.__init__(self, sim)
        self.fabric = fabric
        self.packet = packet
        self.wire = wire
        self.inbox: Optional[Channel] = None

    def _arrive(self, _ev: Event) -> None:
        """Packet reached the ejection port: enqueue (with backpressure)."""
        inbox = self.inbox = self.fabric._inboxes[self.packet.dst]
        # delivery completes when the put does — immediately if the
        # inbox has room, or once a consumer drains a slot (backpressure)
        inbox.put_then(self.packet, self._delivered)

    def _delivered(self, _ev: Event) -> None:
        self.fabric._delivered(self.packet, self.wire, self.inbox)


class NocFabric:
    """Routes packets between tile attachments over a topology."""

    def __init__(self, sim: Simulator, topology: Topology,
                 params: Optional[NocParams] = None,
                 batch_hops: Optional[bool] = None):
        self.sim = sim
        self.topology = topology
        self.params = params or NocParams()
        if batch_hops is None:
            batch_hops = envcfg.flag("REPRO_NOC_BATCH", default=True)
        self.batch_hops = batch_hops
        # hoisted per-send constants (params is frozen after construction)
        self._hop_ps = self.params.hop_latency_ps
        self._bpn = self.params.bytes_per_ns
        self._links: Dict[Tuple[str, int, int], _Link] = {}
        self._paths: Dict[Tuple[int, int], Tuple[_Link, ...]] = {}
        self._inboxes: Dict[int, Channel] = {}
        self._ctr_packets = sim.stats.counter("noc/packets")
        self._ctr_bytes = sim.stats.counter("noc/bytes")
        self._sinks: Dict[int, Callable[[Packet], None]] = {}

    # -- attachment -----------------------------------------------------------

    def attach(self, tile: int) -> Channel:
        """Attach a tile; returns its bounded input queue.

        The owner (a DTU model) consumes packets from the returned
        channel.  A full queue exerts backpressure on the fabric.
        """
        if tile in self._inboxes:
            raise ValueError(f"tile {tile} already attached")
        inbox = Channel(self.sim, capacity=self.params.tile_queue_depth,
                        name=f"noc-inbox-{tile}")
        self._inboxes[tile] = inbox
        return inbox

    # -- transfer -------------------------------------------------------------

    def send(self, packet: Packet):
        """Inject ``packet`` into the fabric.

        On the lazy path this returns the delivery Process; on the
        batched path delivery is driven by plain event callbacks and
        ``None`` is returned.  No caller may rely on the return value.
        """
        if packet.dst not in self._inboxes:
            raise ValueError(f"destination tile {packet.dst} not attached")
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(sim, "noc_inject", src=packet.src,
                        dst=packet.dst, pkt=packet.kind.value,
                        size=packet.size, pid=packet.pid)
        if not self.batch_hops:
            # The lazy path's transfer Process touches the source-side
            # links *and* the destination inbox, so it belongs to no
            # tile (its pushes are never cross-tile).
            with sim.tile_scope(NO_TILE):
                return sim.process(self._transfer(packet),
                                   name=f"pkt{packet.pid}")

        # Batched fast path: reserve every link on the route now and
        # schedule one arrival event at the accumulated time.
        wire = packet.wire_size
        bpn = self._bpn
        transfer = (wire * PS_PER_NS + bpn - 1) // bpn
        hop = self._hop_ps
        t = sim.now
        for link in self._path(packet.src, packet.dst):
            start = link.busy_until
            if start < t:
                start = t
            link.busy_until = start + transfer
            t = start + transfer + hop
        # Injection is the sanctioned crossing: the arrival (and
        # everything it triggers — deposit, core request, wakeup)
        # belongs to the *destination* tile, and its delay t - now
        # carries at least the injection + ejection link cost, i.e. the
        # lookahead bound the causality check enforces.
        prev = sim._active_tile
        sim._active_tile = packet.dst
        arrival = _Arrival(sim, self, packet, wire)
        sim._active_tile = prev
        arrival.callbacks.append(arrival._arrive)
        arrival.succeed(None, delay=t - sim.now)
        return None

    def _delivered(self, packet: Packet, wire: int, inbox: Channel) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "noc_deliver", src=packet.src,
                        dst=packet.dst, pkt=packet.kind.value,
                        pid=packet.pid, qlen=len(inbox))
        self._ctr_packets.add()
        self._ctr_bytes.add(wire)

    def _path(self, src: int, dst: int) -> Tuple[_Link, ...]:
        """The route (injection, routers..., ejection) as cached links."""
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            topo = self.topology
            src_router = topo.router_of(src)
            dst_router = topo.router_of(dst)
            links = [self._link("inj", src, src_router)]
            rpath = topo.router_path(src_router, dst_router)
            for a, b in zip(rpath, rpath[1:]):
                links.append(self._link("rtr", a, b))
            links.append(self._link("ej", dst_router, dst))
            path = self._paths[key] = tuple(links)
        return path

    def _link(self, kind: str, a: int, b: int) -> _Link:
        key = (kind, a, b)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link()
        return link

    def _traverse(self, link: _Link, wire_bytes: int) -> Generator:
        """Occupy one link: wait for it, serialize, add hop latency."""
        now = self.sim.now
        start = max(now, link.busy_until)
        transfer = self.params.transfer_ps(wire_bytes)
        link.busy_until = start + transfer
        yield start - now + transfer + self.params.hop_latency_ps

    def _transfer(self, packet: Packet) -> Generator:
        topo = self.topology
        src_router = topo.router_of(packet.src)
        dst_router = topo.router_of(packet.dst)
        wire = packet.wire_size

        # tile -> router injection link
        yield from self._traverse(self._link("inj", packet.src, src_router), wire)
        # router-to-router hops
        rpath = topo.router_path(src_router, dst_router)
        for a, b in zip(rpath, rpath[1:]):
            yield from self._traverse(self._link("rtr", a, b), wire)
        # router -> tile ejection link; blocking put = backpressure
        yield from self._traverse(self._link("ej", dst_router, packet.dst), wire)
        inbox = self._inboxes[packet.dst]
        yield inbox.put(packet)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "noc_deliver", src=packet.src,
                        dst=packet.dst, pkt=packet.kind.value,
                        pid=packet.pid, qlen=len(inbox))
        self._ctr_packets.add()
        self._ctr_bytes.add(wire)

    # -- helpers ---------------------------------------------------------------

    def latency_estimate_ps(self, src: int, dst: int, payload_bytes: int) -> int:
        """Uncontended end-to-end latency estimate (for tests/docs)."""
        hops = self.topology.hops(src, dst)
        per_hop = self.params.transfer_ps(payload_bytes + 16) + self.params.hop_latency_ps
        return hops * per_hop
