"""The rejected first design iteration (section 3.5).

Before virtualizing the DTU, the authors tried letting TileMux mediate
*every* vDTU access — each endpoint use trapped into TileMux, which
validated and forwarded it.  That "degraded the performance of all
communication by an order of magnitude", which is why endpoints got
activity tags and activities drive the vDTU directly.

This API variant reproduces that design for the ``ablations`` sweep
(:mod:`repro.core.exps.ablations`): every DTU command pays a trap +
mediation cost.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.dtu.message import Message
from repro.mux.api import ActivityApi

# trap into TileMux, argument validation, register-level forwarding of
# the command, result copy-back, trap exit — per vDTU command
MEDIATION_CY = 2200


class MediatedActivityApi(ActivityApi):
    """Every vDTU interaction goes through TileMux."""

    def _mediate(self) -> Generator:
        yield from self.compute(self.costs.trap_enter
                                + self.costs.tmcall_dispatch
                                + MEDIATION_CY
                                + self.costs.trap_exit)
        self.mux.stats.counter("mediated/traps").add()

    def send(self, ep: int, data: Any, size: int,
             reply_ep: Optional[int] = None, virt: int = 0) -> Generator:
        yield from self._mediate()
        yield from super().send(ep, data, size, reply_ep=reply_ep, virt=virt)

    def fetch(self, ep: int) -> Generator:
        yield from self._mediate()
        return (yield from super().fetch(ep))

    def reply(self, ep: int, msg: Message, data: Any, size: int,
              virt: int = 0) -> Generator:
        yield from self._mediate()
        yield from super().reply(ep, msg, data, size, virt=virt)

    def ack(self, ep: int, msg: Message) -> Generator:
        yield from self._mediate()
        yield from super().ack(ep, msg)

    def read(self, ep: int, offset: int, size: int, virt: int = 0) -> Generator:
        yield from self._mediate()
        return (yield from super().read(ep, offset, size, virt=virt))

    def write(self, ep: int, offset: int, data: bytes, virt: int = 0) -> Generator:
        yield from self._mediate()
        yield from super().write(ep, offset, data, virt=virt)
