"""Network-on-chip simulation.

Models the on-chip interconnect of the M3v FPGA platform: four routers
in a 2x2 star-mesh (Figure 4 of the paper), links with finite bandwidth
and bounded input queues (packet-based flow control), and a fabric that
delivers packets between tile attachments.

The packet-based flow control of the NoC is load-bearing for the vDTU:
core-request queue overruns in the vDTU are resolved by NoC
backpressure (section 3.8), which emerges here from the bounded queues.
"""

from repro.noc.fabric import NocFabric, NocParams
from repro.noc.packet import Packet, PacketKind
from repro.noc.topology import StarMeshTopology, Topology

__all__ = [
    "Packet",
    "PacketKind",
    "Topology",
    "StarMeshTopology",
    "NocFabric",
    "NocParams",
]
