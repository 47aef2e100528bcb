"""The traceplayer (section 6.4).

Replays a recorded system-call trace against a VFS backend, charging
the application's own think time between calls.  On M3v every call is
a tile-local RPC to the file-system activity on the same tile; on M3x
each such RPC needs two slow paths through the controller.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.posix.vfs import O_CREAT, O_RDWR, Vfs
from repro.workloads.traces import TraceCall


class TracePlayer:
    """Replays traces; counts completed runs for throughput metrics."""

    def __init__(self, vfs: Vfs, compute):
        """``compute`` is the api's cycle-burning generator function."""
        self.vfs = vfs
        self.compute = compute
        self.runs_completed = 0
        self.calls_replayed = 0

    def play(self, trace: List[TraceCall]) -> Generator:
        """Replay the trace once."""
        fd_table: Dict[int, int] = {}
        scratch = bytearray()
        for call in trace:
            if call.think_cycles:
                yield from self.compute(call.think_cycles)
            op = call.op
            if op == "open":
                fd_table[len(fd_table)] = (yield from self.vfs.open(
                    call.path, O_RDWR | O_CREAT))
            elif op == "close":
                fd = fd_table.pop(call.fd, None)
                if fd is not None:
                    yield from self.vfs.close(fd)
            elif op == "read":
                data = yield from self.vfs.read(fd_table[call.fd], call.size)
                scratch[:] = data[:64]
            elif op == "write":
                yield from self.vfs.write(fd_table[call.fd],
                                          b"\xdb" * call.size)
            elif op == "fsync":
                yield from self.vfs.fsync(fd_table[call.fd])
            elif op == "stat":
                yield from self.vfs.stat(call.path)
            elif op == "readdir":
                yield from self.vfs.readdir(call.path)
            elif op == "mkdir":
                yield from self.vfs.mkdir(call.path)
            elif op == "unlink":
                yield from self.vfs.unlink(call.path)
            else:
                raise ValueError(f"unknown trace op {op!r}")
            self.calls_replayed += 1
        self.runs_completed += 1
