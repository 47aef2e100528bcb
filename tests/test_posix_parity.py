"""POSIX-shim parity: the same program must produce identical file
contents and results on M3v (m3fs) and on the Linux baseline (tmpfs)."""

from repro.api import SystemConfig, build_system
from repro.posix.vfs import (
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    LinuxVfs,
    M3vVfs,
)
from repro.services.boot import boot_m3fs, connect_fs
from repro.services.m3fs import FsClient


def file_workload(vfs, out):
    """A mixed workload touching every VFS operation."""
    yield from vfs.mkdir("/data")
    fd = yield from vfs.open("/data/log", O_WRONLY | O_CREAT)
    for i in range(6):
        yield from vfs.write(fd, f"record-{i:02d};".encode())
    yield from vfs.fsync(fd)
    yield from vfs.close(fd)

    fd = yield from vfs.open("/data/log", O_RDONLY)
    head = yield from vfs.read(fd, 10)
    yield from vfs.seek(fd, 33)
    middle = yield from vfs.read(fd, 11)
    yield from vfs.close(fd)

    st = yield from vfs.stat("/data/log")
    names = yield from vfs.readdir("/data")

    fd = yield from vfs.open("/data/tmp", O_WRONLY | O_CREAT)
    yield from vfs.write(fd, b"junk")
    yield from vfs.close(fd)
    yield from vfs.unlink("/data/tmp")
    names_after = yield from vfs.readdir("/data")

    fd = yield from vfs.open("/data/log", O_WRONLY | O_CREAT | O_TRUNC)
    yield from vfs.write(fd, b"fresh")
    yield from vfs.close(fd)
    st2 = yield from vfs.stat("/data/log")

    out.update(head=head, middle=middle, size=st["size"], names=names,
               names_after=names_after, size_after_trunc=st2["size"])


def run_on_m3v():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1))
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=512))
    env, out = {}, {}

    def prog(api):
        while "fs_eps" not in env:
            yield api.sim.timeout(1_000_000)
        vfs = M3vVfs(FsClient(api, *env["fs_eps"]))
        yield from file_workload(vfs, out)

    act = plat.run_proc(plat.controller.spawn("app", 0, prog))
    env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
    plat.sim.run_until_event(act.exit_event, limit=10**14)
    return out


def run_on_linux():
    machine = build_system(SystemConfig(kind="linux"))
    out = {}

    def prog(api):
        yield from file_workload(LinuxVfs(api), out)

    proc = machine.spawn("app", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**14)
    return out


def test_posix_shim_parity():
    m3v = run_on_m3v()
    linux = run_on_linux()
    assert m3v == linux
    assert m3v["head"] == b"record-00;"
    assert m3v["middle"] == b"ord-03;reco"
    assert m3v["size"] == 60
    assert m3v["names"] == ["log"]
    assert m3v["names_after"] == ["log"]
    assert m3v["size_after_trunc"] == 5
