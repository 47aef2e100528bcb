"""The VFS layer of the POSIX shim.

All methods are generators (they run on simulated time).  Flags follow
the usual POSIX encoding and are translated per backend.
"""

from __future__ import annotations

from typing import Generator

from repro.services.m3fs import FsClient

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 64
O_TRUNC = 512


class Vfs:
    """Uniform file API; see :class:`M3vVfs` and :class:`LinuxVfs`."""

    def open(self, path: str, flags: int = O_RDONLY) -> Generator:
        raise NotImplementedError

    def read(self, fd: int, n: int) -> Generator:
        raise NotImplementedError

    def write(self, fd: int, data: bytes) -> Generator:
        raise NotImplementedError

    def seek(self, fd: int, pos: int) -> Generator:
        raise NotImplementedError

    def close(self, fd: int) -> Generator:
        raise NotImplementedError

    def fsync(self, fd: int) -> Generator:
        raise NotImplementedError

    def stat(self, path: str) -> Generator:
        raise NotImplementedError

    def mkdir(self, path: str) -> Generator:
        raise NotImplementedError

    def readdir(self, path: str) -> Generator:
        raise NotImplementedError

    def unlink(self, path: str) -> Generator:
        raise NotImplementedError


class M3vVfs(Vfs):
    """POSIX calls over an m3fs session.

    Reads and writes go straight to DRAM through the granted extent
    windows; only metadata and extent boundaries reach the service.
    ``fsync`` is a no-op: m3fs is in-memory and every write already
    landed in DRAM synchronously through the vDTU.
    """

    def __init__(self, fs_client: FsClient):
        self.fs = fs_client

    def open(self, path, flags=O_RDONLY):
        return self.fs.open(path, flags)

    def read(self, fd, n):
        return self.fs.read(fd, n)

    def write(self, fd, data):
        return self.fs.write(fd, data)

    def seek(self, fd: int, pos: int) -> Generator:
        self.fs.seek(fd, pos)
        return
        yield  # pragma: no cover

    def close(self, fd):
        return self.fs.close(fd)

    def fsync(self, fd: int) -> Generator:
        return
        yield  # pragma: no cover

    def stat(self, path):
        return self.fs.stat(path)

    def mkdir(self, path):
        return self.fs.mkdir(path)

    def readdir(self, path):
        return self.fs.readdir(path)

    def unlink(self, path):
        return self.fs.unlink(path)


class LinuxVfs(Vfs):
    """POSIX calls on the Linux baseline: one trap per call."""

    def __init__(self, linux_api):
        self.api = linux_api

    def open(self, path, flags=O_RDONLY):
        return self.api.open(path, flags)

    def read(self, fd, n):
        return self.api.read(fd, n)

    def write(self, fd, data):
        return self.api.write(fd, data)

    def seek(self, fd, pos):
        return self.api.lseek(fd, pos)

    def close(self, fd):
        return self.api.close(fd)

    def fsync(self, fd: int) -> Generator:
        # tmpfs fsync is a trap that finds nothing to write back
        yield from self.api.noop_syscall()

    def stat(self, path):
        return self.api.stat(path)

    def mkdir(self, path):
        return self.api.mkdir(path)

    def readdir(self, path):
        return self.api.readdir(path)

    def unlink(self, path):
        return self.api.unlink(path)
