"""Integration tests for the OS services: m3fs, pager, net."""

from repro.api import SystemConfig, build_system
from repro.mux.api import rendezvous
from repro.services.boot import (
    boot_m3fs,
    boot_net,
    boot_pager,
    connect_fs,
    connect_net,
)
from repro.services.m3fs import O_CREAT, O_RDONLY, O_WRONLY, FsClient


def platform(**kw):
    kw.setdefault("n_proc_tiles", 4)
    kw.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(kind="m3v", **kw)).platform


def run_client(plat, tile, body, fs=None, net=None, **spawn_kw):
    """Spawn a client running ``body(api, clients...)``; wire sessions."""
    env = {}

    def prog(api):
        yield from rendezvous(api, env, "ready")
        fs_client = None
        net_client = None
        if "fs_eps" in env:
            fs_client = FsClient(api, *env["fs_eps"])
        if "net_eps" in env:
            from repro.services.net import NetClient
            net_client = NetClient(api, *env["net_eps"])
        yield from body(api, fs_client, net_client)

    ctrl = plat.controller
    act = plat.run_proc(ctrl.spawn("client", tile, prog, **spawn_kw))
    if fs is not None:
        env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
    if net is not None:
        env["net_eps"] = plat.run_proc(connect_net(plat, act, net))
    env["ready"] = True
    return act


# ---------------------------------------------------------------- m3fs


def test_fs_write_then_read_roundtrip():
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=512))
    out = {}

    def body(api, fsc, _net):
        fd = yield from fsc.open("/hello.txt", O_WRONLY | O_CREAT)
        yield from fsc.write(fd, b"hello extent world" * 10)
        yield from fsc.close(fd)
        fd = yield from fsc.open("/hello.txt", O_RDONLY)
        out["data"] = yield from fsc.read(fd, 18)
        out["size"] = fsc.size(fd)
        yield from fsc.close(fd)

    act = run_client(plat, 0, body, fs=fs)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["data"] == b"hello extent world"
    assert out["size"] == 180


def test_fs_large_file_spans_extents():
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=1024,
                                 max_extent_blocks=4))
    payload = bytes(range(256)) * 256  # 64 KiB -> 4 extents of 4 blocks
    out = {}

    def body(api, fsc, _net):
        fd = yield from fsc.open("/big", O_WRONLY | O_CREAT)
        yield from fsc.write(fd, payload)
        yield from fsc.close(fd)
        fd = yield from fsc.open("/big", O_RDONLY)
        chunks = []
        while True:
            chunk = yield from fsc.read(fd, 4096)
            if not chunk:
                break
            chunks.append(chunk)
        out["data"] = b"".join(chunks)

    act = run_client(plat, 0, body, fs=fs)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["data"] == payload
    inode = fs.image.lookup("/big")
    assert len(inode.extents) == 4
    assert all(e.blocks == 4 for e in inode.extents)


def test_fs_populate_and_read():
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=1024))
    data = b"pre-populated!" * 100
    fs.populate(plat.tiles[fs.region.mem_tile].dtu, "/input.dat", data)
    out = {}

    def body(api, fsc, _net):
        st = yield from fsc.stat("/input.dat")
        out["stat_size"] = st["size"]
        fd = yield from fsc.open("/input.dat")
        out["head"] = yield from fsc.read(fd, 14)

    act = run_client(plat, 0, body, fs=fs)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["stat_size"] == len(data)
    assert out["head"] == b"pre-populated!"


def test_fs_dirs_and_unlink():
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=256))
    out = {}

    def body(api, fsc, _net):
        yield from fsc.mkdir("/d")
        fd = yield from fsc.open("/d/a", O_WRONLY | O_CREAT)
        yield from fsc.close(fd)
        fd = yield from fsc.open("/d/b", O_WRONLY | O_CREAT)
        yield from fsc.close(fd)
        out["names"] = yield from fsc.readdir("/d")
        yield from fsc.unlink("/d/a")
        out["names2"] = yield from fsc.readdir("/d")

    act = run_client(plat, 0, body, fs=fs)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["names"] == ["a", "b"]
    assert out["names2"] == ["b"]


def test_fs_extent_grants_amortize_rpcs():
    """Reading within one extent must not hit the fs again (section 6.3)."""
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=512))
    data = b"z" * (64 * 4096)  # exactly one max-size extent
    fs.populate(plat.tiles[fs.region.mem_tile].dtu, "/one_extent", data)
    out = {}

    marks = {}

    def body(api, fsc, _net):
        fd = yield from fsc.open("/one_extent")
        yield from fsc.read(fd, 4096)
        marks["after_first"] = plat.stats.counter_value("dtu/replies")
        for _ in range(15):
            yield from fsc.read(fd, 4096)
        marks["after_rest"] = plat.stats.counter_value("dtu/replies")

    act = run_client(plat, 0, body, fs=fs)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    # the first read pays the extent grant (fs RPC + cap syscalls); the
    # following 15 reads within the extent are pure DMA: zero RPCs
    assert marks["after_rest"] == marks["after_first"]


def test_fs_shared_tile_works():
    plat = platform()
    fs = plat.run_proc(boot_m3fs(plat, tile=2, blocks=256))
    out = {}

    def body(api, fsc, _net):
        fd = yield from fsc.open("/x", O_WRONLY | O_CREAT)
        yield from fsc.write(fd, b"shared tile data")
        yield from fsc.close(fd)
        fd = yield from fsc.open("/x")
        out["data"] = yield from fsc.read(fd, 16)

    act = run_client(plat, 2, body, fs=fs)  # same tile as the fs!
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["data"] == b"shared tile data"
    assert plat.stats.counter_value("tilemux/ctx_switches") > 0


# ---------------------------------------------------------------- pager


def test_pager_demand_paging_resolves_faults():
    plat = platform()
    pager, pager_act = plat.run_proc(boot_pager(plat, tile=1))
    out = {}

    def body(api, _fs, _net):
        # touching fresh heap pages faults through TileMux -> pager -> MAP
        base = api.act.addrspace.HEAP_BASE
        for i in range(4):
            yield from api.touch(base + i * 4096)
        out["done"] = True

    act = run_client(plat, 0, body, pager="pager")
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out.get("done")
    assert pager.faults_handled == 4
    assert plat.stats.counter_value("tilemux/pagefaults") == 4
    # the mapping was applied by TileMux on behalf of the controller
    assert act.addrspace.mapped_pages == 4


def test_pager_faults_only_once_per_page():
    plat = platform()
    pager, _ = plat.run_proc(boot_pager(plat, tile=1))

    def body(api, _fs, _net):
        base = api.act.addrspace.HEAP_BASE
        for _ in range(3):
            yield from api.touch(base)  # same page

    act = run_client(plat, 0, body, pager="pager")
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert pager.faults_handled == 1


# ----------------------------------------------------------------- net


def test_udp_echo_roundtrip():
    plat = platform()
    net = plat.run_proc(boot_net(plat, tile=1))
    net.remote.echo_ports.add(7)  # the remote echoes port 7
    out = {}

    def body(api, _fs, netc):
        sid = yield from netc.socket()
        yield from netc.bind(sid, 5000)
        yield from netc.sendto(sid, 7, b"x", 1)
        value = yield from netc.recvfrom(sid)
        out["reply"] = value

    act = run_client(plat, 0, body, net=net)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert out["reply"]["data"] == b"x"
    assert out["reply"]["from_port"] == 7


def test_udp_send_to_sink_counts_bytes():
    plat = platform()
    net = plat.run_proc(boot_net(plat, tile=1))
    out = {}

    def body(api, _fs, netc):
        sid = yield from netc.socket()
        yield from netc.bind(sid)
        for _ in range(5):
            yield from netc.sendto(sid, 9999, None, 1024)
        out["done"] = True

    act = run_client(plat, 0, body, net=net)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    plat.sim.run(until=plat.sim.now + 10**9)  # drain the wire
    assert net.remote.sunk_frames == 5
    assert net.remote.sunk_bytes == 5 * 1024


def test_lossy_wire_drops_frames():
    plat = platform()
    net = plat.run_proc(boot_net(plat, tile=1, drop_prob=0.5))

    def body(api, _fs, netc):
        sid = yield from netc.socket()
        yield from netc.bind(sid)
        for _ in range(40):
            yield from netc.sendto(sid, 9999, None, 64)

    act = run_client(plat, 0, body, net=net)
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    plat.sim.run(until=plat.sim.now + 10**9)
    assert net.wire.dropped > 0
    assert net.remote.sunk_frames < 40
