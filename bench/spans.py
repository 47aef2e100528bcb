"""Per-layer host self time, measured from outside the program.

The spans run wraps each layer's public entry points, listed in
:data:`LAYER_TABLE`, for the length of one rep and restores the
original class attributes afterwards.  A call into a wrapped entry
point is a *span*; a layer's self time is the time inside its spans
minus the time of the spans nested in them.

* A plain function is timed around the call.
* A generator function returns a :class:`SpanGen` proxy.  The proxy
  times each resumption (``send``/``throw``/``close``) and forwards it,
  so a coroutine that stays suspended for simulated microseconds is
  charged only for the host time it actually runs.
* Every program handed to ``Controller.spawn`` is wrapped the same way
  as layer ``apps.activity``; that is the harness code of the figure
  (balancer, gateway, sink, kv server, player, client, server).
* Engine callbacks that are not inside a wrapped call are charged to
  the layer owning them, by process name (:data:`OWNER_LAYERS`).  The
  owner comes from a ``SelfProfiler`` subclass installed through
  ``repro.obs.capture_profile``, which also switches the engine to its
  hooked drain loop.  The drain loop's own time outside any callback or
  span is ``sim.engine``.

The profiler's own bookkeeping per callback is charged to
``bench.overhead``, not to the engine.  Whatever the spans run spends
outside every top-level span (building systems, the figures' own
reduction code) is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

_PUBLIC = r"[a-z]\w*"
_API = (r"compute|compute_us|send|send_nowait|fetch|recv|reply|ack|call|rpc"
        r"|read|write|syscall|syscall_forward|sleep_us")

#: (layer, module, class, regex of the method names wrapped).  Only
#: functions defined in the class itself are wrapped, so a subclass
#: override and the base method are separate spans.
LAYER_TABLE: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator",
     r"run|run_until_event|step"),
    ("sim.trace", "repro.sim.trace", "Tracer", r"emit"),
    ("testing.invariants", "repro.testing.invariants", "InvariantSuite",
     r"on_event"),
    ("mux.api", "repro.mux.api", "ActivityApi", _API),
    ("mux.api", "repro.mux.m3x", "M3xActivityApi", _API),
    ("dtu.cmd", "repro.dtu.dtu", "Dtu", r"cmd_\w+"),
    ("dtu.cmd", "repro.dtu.vdtu", "VDtu", r"priv_\w+"),
    ("noc.send", "repro.noc.fabric", "NocFabric", r"send"),
    ("kernel.controller", "repro.kernel.controller", "Controller", _PUBLIC),
    ("kernel.controller", "repro.mux.m3x", "M3xController", _PUBLIC),
    ("services.serving", "repro.services.serving", "AdmissionQueue", _PUBLIC),
    ("services.serving", "repro.services.serving", "TokenBucket", _PUBLIC),
    ("services.serving", "repro.services.serving", "CircuitBreaker", _PUBLIC),
    ("services.serving", "repro.services.serving", "ServingStack",
     r"admit_tenant"),
    ("services.m3fs", "repro.services.m3fs", "M3fsService", r"program"),
    ("services.m3fs.client", "repro.services.m3fs", "FsClient", _PUBLIC),
    ("apps.lsm", "repro.apps.lsm", "LsmStore", r"open|get|put"),
    ("apps.traceplayer", "repro.apps.traceplayer", "TracePlayer", r"play"),
)

#: (process-name prefix, layer) for engine callbacks; first match wins,
#: anything else (bare callbacks such as NoC ``_Arrival``) is ``other``.
#: TileMux names its sleep timers ``sleep-*``; the M3x mux leaves its
#: sleep timers unnamed, so they carry the generator's name
#: ``_wake_after``.
OWNER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("tilemux", "mux.tilemux"),
    ("sleep-", "mux.tilemux"),
    ("m3xmux", "mux.m3x"),
    ("_wake_after", "mux.m3x"),
    ("dtu", "dtu.rx"),
    ("controller", "kernel.controller"),
)

ACTIVITY = "apps.activity"
OTHER = "other"
OVERHEAD = "bench.overhead"

#: per-layer self-time metric -> layer
SELF_METRICS: Dict[str, str] = {
    "sim.engine.self_s": "sim.engine",
    "sim.trace.self_s": "sim.trace",
    "testing.invariants.self_s": "testing.invariants",
    "mux.tilemux.self_s": "mux.tilemux",
    "mux.m3x.self_s": "mux.m3x",
    "mux.api.self_s": "mux.api",
    "dtu.cmd.self_s": "dtu.cmd",
    "dtu.rx.self_s": "dtu.rx",
    "noc.send.self_s": "noc.send",
    "other.self_s": OTHER,
    "kernel.controller.self_s": "kernel.controller",
    "services.serving.self_s": "services.serving",
    "services.m3fs.self_s": "services.m3fs",
    "services.m3fs.client_self_s": "services.m3fs.client",
    "apps.lsm.self_s": "apps.lsm",
    "apps.traceplayer.self_s": "apps.traceplayer",
    "apps.activity.self_s": ACTIVITY,
}

_clock = time.perf_counter

# frame fields: [layer, start, child time, child time at the last
# callback boundary, span id, parent span id]
_LAYER, _START, _CHILD, _MARK, _ID, _PARENT = range(6)


class Recorder:
    """A span stack plus per-layer self time and call counts.

    ``window`` > 0 also keeps the first ``window`` finished spans as
    ``(id, parent id, layer, start, end)`` tuples.
    """

    def __init__(self, window: int = 0):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.callbacks: Dict[str, int] = defaultdict(int)
        self.stack: List[list] = []
        self.window_size = window
        self.window: List[tuple] = []
        self._ids = 0

    def enter(self, layer: str) -> None:
        self._ids += 1
        stack = self.stack
        parent = stack[-1][_ID] if stack else 0
        stack.append([layer, _clock(), 0.0, 0.0, self._ids, parent])

    def exit(self) -> None:
        end = _clock()
        frame = self.stack.pop()
        elapsed = end - frame[_START]
        self.self_s[frame[_LAYER]] += elapsed - frame[_CHILD]
        if self.stack:
            self.stack[-1][_CHILD] += elapsed
        if len(self.window) < self.window_size:
            self.window.append((frame[_ID], frame[_PARENT], frame[_LAYER],
                                frame[_START], end))


class SpanGen:
    """Proxy generator: times each resumption of ``gen`` as a span."""

    __slots__ = ("_gen", "_layer", "_rec")

    def __init__(self, gen, layer: str, rec: Recorder):
        self._gen = gen
        self._layer = layer
        self._rec = rec

    def __iter__(self) -> "SpanGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        rec = self._rec
        rec.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            rec.exit()

    def throw(self, *args: Any) -> Any:
        rec = self._rec
        rec.enter(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            rec.exit()

    def close(self) -> None:
        rec = self._rec
        rec.enter(self._layer)
        try:
            self._gen.close()
        finally:
            rec.exit()


def _wrap(fn, layer: str, rec: Recorder):
    key = (layer, fn.__name__)
    calls = rec.calls
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_span(*args, **kwargs):
            calls[key] += 1
            return SpanGen(fn(*args, **kwargs), layer, rec)
        return gen_span

    @functools.wraps(fn)
    def span(*args, **kwargs):
        calls[key] += 1
        rec.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return span


def _wrap_spawn(spawn, rec: Recorder):
    """``Controller.spawn`` that also wraps the program it is given."""

    @functools.wraps(spawn)
    def spawn_span(self, name, tile_id, program, *args, **kwargs):
        # M3xController.spawn hands its program on to Controller.spawn:
        # wrap it once
        if getattr(program, "bench_activity", False):
            return spawn(self, name, tile_id, program, *args, **kwargs)

        def activity(*pargs, **pkwargs):
            return SpanGen(program(*pargs, **pkwargs), ACTIVITY, rec)
        activity.bench_activity = True
        return spawn(self, name, tile_id, activity, *args, **kwargs)
    return spawn_span


def owner_layer(name) -> str:
    if name:
        for prefix, layer in OWNER_LAYERS:
            if name.startswith(prefix):
                return layer
    return OTHER


def _owner_profiler(rec: Recorder):
    from repro.obs import SelfProfiler

    class OwnerProfiler(SelfProfiler):
        """Charges each engine callback, minus the spans nested in it,
        to the layer of the process that owns it."""

        def __init__(self):
            super().__init__()
            self.layers: Dict[Any, str] = {}

        def on_step(self) -> None:
            # called after the engine's evq_pop emit and before the
            # event's callbacks: spans from here on are callback-nested
            self.events += 1
            if rec.stack:
                frame = rec.stack[-1]
                frame[_MARK] = frame[_CHILD]

        def record(self, owner, dt: float) -> None:
            t_in = _clock()
            name = getattr(owner, "name", None)
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = owner_layer(name)
            stack = rec.stack
            if stack:
                frame = stack[-1]
                rec.self_s[layer] += dt - (frame[_CHILD] - frame[_MARK])
                frame[_CHILD] = frame[_MARK] + dt
            else:
                rec.self_s[layer] += dt
            rec.callbacks[layer] += 1
            over = _clock() - t_in
            rec.self_s[OVERHEAD] += over
            if stack:
                frame[_CHILD] += over
                frame[_MARK] = frame[_CHILD]

    return OwnerProfiler()


def wrapped_methods() -> Iterator[Tuple[str, type, str]]:
    """(layer, class, method name) for every entry point the table wraps."""
    for layer, module, clsname, pattern in LAYER_TABLE:
        cls = getattr(importlib.import_module(module), clsname)
        for name, attr in list(vars(cls).items()):
            if inspect.isfunction(attr) and re.fullmatch(pattern, name):
                yield layer, cls, name


@contextmanager
def instrument(rec: Recorder):
    """Wrap every table entry and profile every simulator built inside
    the block; the original class attributes are restored on exit."""
    from repro.obs import capture_profile

    saved = []
    try:
        for layer, cls, name in wrapped_methods():
            fn = vars(cls)[name]
            span = _wrap(fn, layer, rec)
            if layer == "kernel.controller" and name == "spawn":
                span = _wrap_spawn(span, rec)
            saved.append((cls, name, fn))
            setattr(cls, name, span)
        with capture_profile(_owner_profiler(rec)):
            yield rec
    finally:
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)
