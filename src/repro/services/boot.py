"""Boot helpers: assemble services and sessions on a platform.

These run as simulation processes (``plat.run_proc``) and use the same
controller machinery as runtime code, so setup is charged realistically
— but they keep benchmark scripts short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:
    from repro.core.platform import M3vPlatform

from repro.dtu.endpoints import Perm, ReceiveEndpoint
from repro.kernel.activity import Activity
from repro.kernel.caps import CapKind, MGateObj, RGateObj, ServiceObj
from repro.kernel.memalloc import PhysRegion
from repro.services.fsdata import BLOCK_SIZE, FsImage
from repro.services.m3fs import M3fsService
from repro.services.net import NetService
from repro.services.pager import PagerService
from repro.tiles.nic import EthernetWire, NicDevice, RemoteHost


class ServiceBox:
    """Lets us spawn a service activity before its state exists."""

    def __init__(self):
        self.service = None

    def program(self, api) -> Generator:
        while self.service is None:
            yield api.sim.timeout(1_000_000)
        yield from self.service.program(api)


@dataclass
class BootedFs:
    service: M3fsService
    act: Activity
    rgate: RGateObj
    image: FsImage
    region: PhysRegion

    def populate(self, mem_dtu, path: str, data: bytes,
                 max_extent_blocks: int = 64) -> None:
        """Pre-create a file with contents (host-level, no sim cost).

        Used to set up benchmark inputs, like mkfs would.
        """
        inode = self.image.create(path)
        remaining = len(data)
        pos = 0
        while remaining > 0:
            want = (remaining + BLOCK_SIZE - 1) // BLOCK_SIZE
            extent = self.image.append_extent(inode, want, max_extent_blocks)
            chunk = data[pos:pos + extent.bytes]
            base = self.region.base + extent.byte_offset
            mem_dtu.dram[base:base + len(chunk)] = chunk
            pos += extent.bytes
            remaining -= min(remaining, extent.bytes)
        inode.size = len(data)


def boot_m3fs(plat: M3vPlatform, tile: int, blocks: int = 4096,
              max_extent_blocks: int = 64, name: str = "m3fs") -> Generator:
    """Spawn and wire the m3fs service; returns a :class:`BootedFs`."""
    ctrl = plat.controller
    box = ServiceBox()
    act = yield from ctrl.spawn(name, tile, box.program)
    region = ctrl.phys.alloc(blocks * BLOCK_SIZE)
    rgate_ep = ctrl.alloc_ep(tile)
    yield from ctrl.config_ep(tile, rgate_ep, ReceiveEndpoint(
        act=act.act_id, slots=16, slot_size=2048))
    rgate = RGateObj(slots=16, slot_size=2048, tile=tile, ep=rgate_ep,
                     owner_act=act.act_id)
    ctrl.register_act_ep(act, rgate_ep, rgate=True)
    image_ep = yield from ctrl.wire_memory(act, region.mem_tile,
                                           region.base, region.size)
    ctrl.register_act_ep(act, image_ep)
    image_cap = ctrl.tables[act.act_id].insert(
        CapKind.MGATE, MGateObj(mem_tile=region.mem_tile, base=region.base,
                                size=region.size, perm=Perm.RW))
    yield from ctrl.finalize_eps(act)
    image = FsImage(blocks)
    ctrl.services[name] = ServiceObj(name=name, rgate=rgate)
    service = M3fsService(image, image_ep, image_cap.sel, rgate_ep,
                          max_extent_blocks=max_extent_blocks)
    ctrl.services[name].meta["service"] = service
    box.service = service
    return BootedFs(service, act, rgate, image, region)


def connect_fs(plat: M3vPlatform, client: Activity,
               fs: BootedFs) -> Generator:
    """Open a client session with m3fs; returns (send_ep, reply_ep, data_ep).

    The client program constructs ``FsClient(api, *eps)`` from these.
    """
    ctrl = plat.controller
    send_ep = ctrl.alloc_ep(client.tile_id)
    reply_ep = ctrl.alloc_ep(client.tile_id)
    data_ep = ctrl.alloc_ep(client.tile_id)
    from repro.dtu.endpoints import SendEndpoint
    yield from ctrl.config_ep(client.tile_id, reply_ep, ReceiveEndpoint(
        act=client.act_id, slots=2, slot_size=2048))
    yield from ctrl.config_ep(client.tile_id, send_ep, SendEndpoint(
        act=client.act_id, dst_tile=fs.rgate.tile, dst_ep=fs.rgate.ep,
        label=client.act_id, max_msg_size=2048, credits=1, max_credits=1))
    ctrl.register_act_ep(client, send_ep)
    ctrl.register_act_ep(client, reply_ep, rgate=True)
    ctrl.register_act_ep(client, data_ep)
    yield from ctrl.finalize_eps(client)
    return send_ep, reply_ep, data_ep


def boot_pager(plat: M3vPlatform, tile: int,
               name: str = "pager") -> Generator:
    """Spawn and wire the pager; all TileMux instances get a send gate."""
    ctrl = plat.controller
    box = ServiceBox()
    act = yield from ctrl.spawn(name, tile, box.program)
    rgate_ep = ctrl.alloc_ep(tile)
    yield from ctrl.config_ep(tile, rgate_ep, ReceiveEndpoint(
        act=act.act_id, slots=16, slot_size=256))
    rgate = RGateObj(slots=16, slot_size=256, tile=tile, ep=rgate_ep,
                     owner_act=act.act_id)
    service = PagerService(rgate_ep)
    ctrl.services[name] = ServiceObj(name=name, rgate=rgate,
                                     meta={"service": service})
    box.service = service
    plat.wire_pager_eps(rgate)
    return service, act


@dataclass
class BootedNet:
    service: NetService
    act: Activity
    rgate: RGateObj
    nic: NicDevice
    wire: EthernetWire
    remote: RemoteHost


def boot_net(plat: M3vPlatform, tile: int, name: str = "net",
             drop_prob: float = 0.0) -> Generator:
    """Spawn the net service on the NIC tile, with wire + remote host."""
    ctrl = plat.controller
    wire = EthernetWire(plat.sim, drop_prob=drop_prob)
    remote = RemoteHost(plat.sim, wire)
    nic = NicDevice(plat.sim, wire)
    box = ServiceBox()
    act = yield from ctrl.spawn(name, tile, box.program)
    rgate_ep = ctrl.alloc_ep(tile)
    yield from ctrl.config_ep(tile, rgate_ep, ReceiveEndpoint(
        act=act.act_id, slots=16, slot_size=2048))
    rgate = RGateObj(slots=16, slot_size=2048, tile=tile, ep=rgate_ep,
                     owner_act=act.act_id)
    service = NetService(rgate_ep, nic)
    ctrl.services[name] = ServiceObj(name=name, rgate=rgate,
                                     meta={"service": service})
    box.service = service
    return BootedNet(service, act, rgate, nic, wire, remote)


def connect_net(plat: M3vPlatform, client: Activity,
                net: BootedNet) -> Generator:
    """Open a client session with net; returns (send_ep, reply_ep)."""
    ctrl = plat.controller
    from repro.dtu.endpoints import SendEndpoint
    send_ep = ctrl.alloc_ep(client.tile_id)
    reply_ep = ctrl.alloc_ep(client.tile_id)
    yield from ctrl.config_ep(client.tile_id, reply_ep, ReceiveEndpoint(
        act=client.act_id, slots=2, slot_size=2048))
    yield from ctrl.config_ep(client.tile_id, send_ep, SendEndpoint(
        act=client.act_id, dst_tile=net.rgate.tile, dst_ep=net.rgate.ep,
        label=client.act_id, max_msg_size=2048, credits=2, max_credits=2))
    return send_ep, reply_ep
