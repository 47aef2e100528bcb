"""The single-tile Linux machine model.

Execution model mirrors the M3v tile executor: processes are
generators that yield simulation events (compute) or :class:`Sys`
markers (system calls).  The kernel charges every syscall its trap
overhead plus an i-cache refill penalty scaled to the subsystem it
touches — the cost structure the paper holds responsible for Linux's
behaviour in Figures 6, 7, 8 and 10.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional

from repro.linuxsim.tmpfs import TmpFs, TmpFsError
from repro.sim import Simulator
from repro.sim.engine import Event
from repro.tiles.costs import LinuxCosts
from repro.tiles.nic import EthernetWire, EthFrame, NicDevice, RemoteHost

_pids = itertools.count(1)

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 64
O_TRUNC = 512

# syscall work costs beyond trap + refill (cycles)
FS_OP_CY = 700           # VFS path walk, fd table
FS_ALLOC_PAGE_CY = 1700  # tmpfs page allocation, zeroing, accounting
NET_OP_CY = 1200         # socket layer
NET_STACK_CY = 10000     # UDP/IP + skb + driver per packet
SCHED_TICK_MS = 10


class LinuxError(Exception):
    pass


@dataclass
class Sys:
    """A system-call marker yielded by process generators."""

    op: str
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class LinuxProcess:
    name: str
    pid: int = field(default_factory=lambda: next(_pids))
    gen: Optional[Generator] = None
    state: str = "ready"       # ready | running | blocked | exited
    user_ps: int = 0
    sys_ps: int = 0
    exit_event: Any = None
    exit_code: int = 0
    _resume_value: Any = None


@dataclass
class _LinuxSocket:
    sid: int
    owner: int
    port: int = 0
    rx: List[EthFrame] = field(default_factory=list)
    waiter: Optional[LinuxProcess] = None


class LinuxApi:
    """What a Linux process sees (the libc, essentially)."""

    COMPUTE_CHUNK_CYCLES = 100_000

    def __init__(self, machine: "LinuxMachine", proc: LinuxProcess):
        self.machine = machine
        self.proc = proc
        self.sim = machine.sim
        self.clock = machine.costs.clock

    def compute(self, cycles: int) -> Generator:
        remaining = int(cycles)
        while remaining > 0:
            chunk = min(remaining, self.COMPUTE_CHUNK_CYCLES)
            yield self.clock.cycles_to_ps(chunk)
            remaining -= chunk

    def compute_us(self, us: float) -> Generator:
        yield from self.compute(round(self.clock.us_to_cycles(us)))

    # every libc wrapper is one Sys yield; the kernel returns the result
    def syscall(self, op: str, **args) -> Generator:
        result = yield Sys(op, args)
        if isinstance(result, LinuxError):
            raise result
        return result

    def noop_syscall(self):
        return self.syscall("noop")

    def open(self, path, flags=O_RDONLY):
        return self.syscall("open", path=path, flags=flags)

    def read(self, fd, n):
        return self.syscall("read", fd=fd, n=n)

    def write(self, fd, data):
        return self.syscall("write", fd=fd, data=data)

    def close(self, fd):
        return self.syscall("close", fd=fd)

    def lseek(self, fd, pos):
        return self.syscall("lseek", fd=fd, pos=pos)

    def stat(self, path):
        return self.syscall("stat", path=path)

    def mkdir(self, path):
        return self.syscall("mkdir", path=path)

    def readdir(self, path):
        return self.syscall("readdir", path=path)

    def unlink(self, path):
        return self.syscall("unlink", path=path)

    def socket(self):
        return self.syscall("socket")

    def bind(self, sid, port=0):
        return self.syscall("bind", sid=sid, port=port)

    def sendto(self, sid, dst_port, data, size):
        return self.syscall("sendto", sid=sid, dst_port=dst_port,
                            data=data, size=size)

    def recvfrom(self, sid) -> Generator:
        """Blocking receive: the kernel parks us until a frame arrives,
        then the wakeup re-enters the syscall to copy the data out."""
        while True:
            result = yield from self.syscall("recvfrom", sid=sid)
            if result is not None:
                return result

    def sched_yield(self):
        return self.syscall("yield")

    def getrusage(self) -> Dict[str, float]:
        """User/system time in seconds, like getrusage(2)."""
        return {"user_s": self.proc.user_ps / 1e12,
                "sys_s": self.proc.sys_ps / 1e12}

    def exit(self, code: int = 0):
        return self.syscall("exit", code=code)


class LinuxMachine:
    """One 80 MHz core running the whole stack."""

    def __init__(self, sim: Optional[Simulator] = None,
                 costs: Optional[LinuxCosts] = None,
                 with_net: bool = False):
        self.sim = sim or Simulator()
        self.costs = costs or LinuxCosts()
        self.clock = self.costs.clock
        self.stats = self.sim.stats
        self.fs = TmpFs()
        self.procs: Dict[int, LinuxProcess] = {}
        self.run_queue: Deque[LinuxProcess] = deque()
        self.current: Optional[LinuxProcess] = None
        self._fds: Dict[int, tuple] = {}  # fd -> (path, pos, flags)
        self._next_fd = 3
        self.socks: Dict[int, _LinuxSocket] = {}
        self._by_port: Dict[int, _LinuxSocket] = {}
        self._next_sid = 1
        self._next_port = 41000
        self._wake: Event = self.sim.event()
        self.timeslice_ps = SCHED_TICK_MS * 1_000_000_000

        self.wire = self.remote = self.nic = None
        if with_net:
            self.wire = EthernetWire(self.sim)
            self.remote = RemoteHost(self.sim, self.wire)
            self.nic = NicDevice(self.sim, self.wire)
            self.nic.attach_driver(self._nic_irq)

        self._proc = self.sim.process(self._main_loop(), name="linux")

    # ------------------------------------------------------------- spawning

    def spawn(self, name: str, program) -> LinuxProcess:
        proc = LinuxProcess(name=name)
        proc.exit_event = self.sim.event()
        api = LinuxApi(self, proc)
        proc.gen = program(api)
        self.procs[proc.pid] = proc
        self.run_queue.append(proc)
        self._kick()
        return proc

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _nic_irq(self) -> None:
        # bottom half: deliver frames to sockets, wake sleepers
        while self.nic.has_rx:
            frame = self.nic.pop_rx()
            sock = self._by_port.get(frame.dst_port)
            if sock is None:
                continue
            sock.rx.append(frame)
            if sock.waiter is not None and sock.waiter.state == "blocked":
                sock.waiter.state = "ready"
                self.run_queue.append(sock.waiter)
                sock.waiter = None
        self._kick()

    def _charge_sys(self, proc: LinuxProcess, cycles: int) -> Generator:
        ps = self.clock.cycles_to_ps(cycles)
        proc.sys_ps += ps
        self.stats.counter("linux/syscalls").add()
        yield ps

    # ------------------------------------------------------------- main loop

    def _main_loop(self) -> Generator:
        while True:
            if not self.run_queue:
                if self._wake.triggered:
                    self._wake = self.sim.event()
                yield self._wake
                continue
            proc = self.run_queue.popleft()
            yield from self._dispatch(proc)

    def _dispatch(self, proc: LinuxProcess) -> Generator:
        self.current = proc
        proc.state = "running"
        slice_end = self.sim.now + self.timeslice_ps
        inject = proc._resume_value
        proc._resume_value = None
        user_start = self.sim.now

        def account_user():
            nonlocal user_start
            proc.user_ps += self.sim.now - user_start
            user_start = self.sim.now

        while True:
            if self.sim.now >= slice_end and self.run_queue:
                account_user()
                yield from self._charge_sys(proc, self.costs.sched_pick
                                            + self.costs.ctx_switch)
                proc.state = "ready"
                proc._resume_value = inject
                self.run_queue.append(proc)
                break
            try:
                item = proc.gen.send(inject)
            except StopIteration:
                account_user()
                self._exit(proc, 0)
                break
            inject = None
            if type(item) is int or isinstance(item, Event):
                # ints are the engine's timeout fast path; forward as-is
                inject = yield item
            elif isinstance(item, Sys):
                account_user()
                inject, keep = yield from self._syscall(proc, item)
                user_start = self.sim.now
                if not keep:
                    break
            elif item is None:
                pass
            else:
                raise RuntimeError(f"process {proc.name} yielded {item!r}")
        account_user()
        self.current = None

    def _exit(self, proc: LinuxProcess, code: int) -> None:
        proc.state = "exited"
        proc.exit_code = code
        self.procs.pop(proc.pid, None)
        if proc.exit_event and not proc.exit_event.triggered:
            proc.exit_event.succeed(code)

    # -------------------------------------------------------------- syscalls

    def _syscall(self, proc: LinuxProcess, call: Sys) -> Generator:
        """Returns (resume_value, keep_running)."""
        op, args = call.op, call.args
        c = self.costs
        refill = c.icache_refill_noop
        if op in ("open", "read", "write", "close", "lseek", "stat",
                  "mkdir", "readdir", "unlink"):
            refill = c.icache_refill_fs
        elif op in ("socket", "bind", "sendto", "recvfrom"):
            refill = c.icache_refill_net
        elif op == "yield":
            refill = 300  # the scheduler path stays hot in the i-cache
        yield from self._charge_sys(proc, c.syscall_overhead(refill))
        try:
            handler = getattr(self, f"_sys_{op}")
            return (yield from handler(proc, args))
        except (TmpFsError, LinuxError) as exc:
            return LinuxError(str(exc)), True

    def _sys_noop(self, proc, args) -> Generator:
        return None, True
        yield  # pragma: no cover

    def _sys_exit(self, proc, args) -> Generator:
        self._exit(proc, args.get("code", 0))
        return None, False
        yield  # pragma: no cover

    def _sys_yield(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, self.costs.sched_pick
                                    + self.costs.ctx_switch)
        proc.state = "ready"
        self.run_queue.append(proc)
        return None, False

    # -- files ------------------------------------------------------------

    def _sys_open(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, FS_OP_CY)
        path, flags = args["path"], args.get("flags", O_RDONLY)
        if not self.fs.exists(path):
            if not flags & O_CREAT:
                raise TmpFsError(f"{path}: no such file")
            self.fs.create(path)
        elif flags & O_TRUNC:
            self.fs.truncate(path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = [path, 0, flags]
        return fd, True

    def _fd(self, fd: int):
        entry = self._fds.get(fd)
        if entry is None:
            raise LinuxError(f"bad fd {fd}")
        return entry

    def _sys_read(self, proc, args) -> Generator:
        entry = self._fd(args["fd"])
        data = self.fs.read(entry[0], entry[1], args["n"])
        # copy_to_user
        yield from self._charge_sys(proc, FS_OP_CY + len(data)
                                    // self.costs.copy_bytes_per_cycle)
        entry[1] += len(data)
        return data, True

    def _sys_write(self, proc, args) -> Generator:
        entry = self._fd(args["fd"])
        data = args["data"]
        new_pages = self.fs.write(entry[0], entry[1], data)
        yield from self._charge_sys(
            proc, FS_OP_CY + len(data) // self.costs.copy_bytes_per_cycle
            + new_pages * FS_ALLOC_PAGE_CY)
        entry[1] += len(data)
        return len(data), True

    def _sys_lseek(self, proc, args) -> Generator:
        entry = self._fd(args["fd"])
        entry[1] = args["pos"]
        return args["pos"], True
        yield  # pragma: no cover

    def _sys_close(self, proc, args) -> Generator:
        self._fds.pop(args["fd"], None)
        return None, True
        yield  # pragma: no cover

    def _sys_stat(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, FS_OP_CY)
        path = args["path"]
        if not self.fs.exists(path):
            raise TmpFsError(f"{path}: no such file")
        return {"size": self.fs.size(path),
                "kind": "dir" if self.fs.is_dir(path) else "file"}, True

    def _sys_mkdir(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, FS_OP_CY)
        self.fs.mkdir(args["path"])
        return None, True

    def _sys_readdir(self, proc, args) -> Generator:
        names = self.fs.listdir(args["path"])
        yield from self._charge_sys(proc, FS_OP_CY + 80 * max(1, len(names)))
        return names, True

    def _sys_unlink(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, FS_OP_CY)
        self.fs.unlink(args["path"])
        return None, True

    # -- sockets -----------------------------------------------------------

    def _require_net(self) -> None:
        if self.nic is None:
            raise LinuxError("machine built without networking")

    def _sys_socket(self, proc, args) -> Generator:
        self._require_net()
        yield from self._charge_sys(proc, NET_OP_CY)
        sock = _LinuxSocket(self._next_sid, owner=proc.pid)
        self._next_sid += 1
        self.socks[sock.sid] = sock
        return sock.sid, True

    def _socket(self, args) -> _LinuxSocket:
        sock = self.socks.get(args["sid"])
        if sock is None:
            raise LinuxError(f"bad socket {args.get('sid')}")
        return sock

    def _sys_bind(self, proc, args) -> Generator:
        yield from self._charge_sys(proc, NET_OP_CY)
        sock = self._socket(args)
        port = args.get("port") or self._next_port
        self._next_port += 1
        if port in self._by_port:
            raise LinuxError(f"port {port} in use")
        sock.port = port
        self._by_port[port] = sock
        return port, True

    def _sys_sendto(self, proc, args) -> Generator:
        self._require_net()
        sock = self._socket(args)
        size = args["size"]
        yield from self._charge_sys(
            proc, NET_STACK_CY + size // self.costs.copy_bytes_per_cycle)
        self.nic.transmit(EthFrame(payload=args.get("data"), size=size,
                                   src_port=sock.port,
                                   dst_port=args["dst_port"]))
        return size, True

    def _sys_recvfrom(self, proc, args) -> Generator:
        sock = self._socket(args)
        if not sock.rx:
            yield from self._charge_sys(proc, NET_OP_CY
                                        + self.costs.ctx_switch)
            sock.waiter = proc
            proc.state = "blocked"
            return None, False
        frame = sock.rx.pop(0)
        yield from self._charge_sys(
            proc, NET_STACK_CY + frame.size // self.costs.copy_bytes_per_cycle)
        return {"data": frame.payload, "size": frame.size,
                "from_port": frame.src_port}, True
