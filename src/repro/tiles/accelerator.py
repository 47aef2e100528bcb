"""Accelerator tiles (M3 semantics).

M3v keeps M3/M3x's unified integration of fixed-function accelerators:
an accelerator tile carries a plain (non-virtualized) DTU and works on
one context; it can be chained "autonomously" with other accelerators
and services — the `decode | fft | mul | ifft` shell pipeline of
Figure 2.  Multiplexing accelerators is explicitly future work in the
paper (section 8), so exactly one context per accelerator is enforced.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.dtu.dtu import Dtu
from repro.dtu.endpoints import ReceiveEndpoint, SendEndpoint
from repro.sim import Simulator

# Fixed endpoint layout on accelerator tiles.
EP_IN = 8     # receive gate for input data
EP_OUT = 9    # send gate towards the next pipeline stage

PS_PER_NS = 1_000


class StreamAccelerator:
    """A fixed-function streaming accelerator.

    ``logic`` transforms each input payload (bytes -> bytes);
    ``bytes_per_ns`` models the accelerator's processing throughput and
    ``setup_ns`` its per-message kick-off cost.  Messages stream in on
    :data:`EP_IN` and results go out on :data:`EP_OUT` (configured by
    the controller like any other channel).
    """

    def __init__(self, sim: Simulator, dtu: Dtu, name: str,
                 logic: Callable[[bytes], bytes],
                 bytes_per_ns: float = 4.0, setup_ns: int = 500):
        self.sim = sim
        self.dtu = dtu
        self.name = name
        self.logic = logic
        self.bytes_per_ns = bytes_per_ns
        self.setup_ns = setup_ns
        self.processed = 0
        self._bound = False
        self._proc = sim.process(self._run(), name=f"accel-{name}")

    def bind_context(self) -> None:
        """Accelerators hold exactly one context (section 8)."""
        if self._bound:
            raise RuntimeError(f"accelerator {self.name} already has a context")
        self._bound = True

    def _run(self) -> Generator:
        wake = self.sim.event()
        self.dtu.msg_callback = lambda ep: (wake.succeed()
                                            if not wake.triggered else None)
        while True:
            msg = yield from self.dtu.cmd_fetch(EP_IN)
            if msg is None:
                if wake.triggered:
                    wake = self.sim.event()
                    self.dtu.msg_callback = lambda ep: (
                        wake.succeed() if not wake.triggered else None)
                    continue
                yield wake
                continue
            data = msg.data if isinstance(msg.data, (bytes, bytearray)) \
                else bytes(msg.size)
            yield (self.setup_ns * PS_PER_NS
                   + round(len(data) / self.bytes_per_ns) * PS_PER_NS)
            result = self.logic(bytes(data))
            yield from self.dtu.cmd_ack(EP_IN, msg)
            out = self.dtu.eps[EP_OUT]
            if isinstance(out, SendEndpoint):
                yield from self.dtu.cmd_send(EP_OUT, result, len(result))
            self.processed += 1

    # -- boot-time wiring ---------------------------------------------------

    def wire_input(self, slots: int = 4, slot_size: int = 4096) -> None:
        self.dtu.configure(EP_IN, ReceiveEndpoint(slots=slots,
                                                  slot_size=slot_size))

    def wire_output(self, dst_tile: int, dst_ep: int,
                    credits: int = 4, max_msg_size: int = 4096) -> None:
        self.dtu.configure(EP_OUT, SendEndpoint(
            dst_tile=dst_tile, dst_ep=dst_ep, label=0,
            max_msg_size=max_msg_size, credits=credits, max_credits=credits))
