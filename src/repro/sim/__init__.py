"""Discrete-event simulation engine.

A lean, generator-based DES kernel in the style of simpy, built from
scratch for this reproduction.  Everything in the platform simulation
(NoC, DTU, cores, OS components) is expressed as :class:`Process`es that
yield :class:`Event`s to a :class:`Simulator`.

Public surface::

    sim = Simulator()
    proc = sim.process(my_generator())
    sim.run(until=1_000_000)

Inside a process generator::

    yield sim.timeout(100)          # sleep 100 time units
    value = yield some_event        # wait for an event, receive its value
    yield channel.put(item)         # blocking put into a bounded channel
    item = yield channel.get()      # blocking get
"""

from repro.sim.engine import (
    NO_TILE,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.parallel import CausalityCheckedQueue, CausalityError
from repro.sim.stats import Counter, Histogram, StatRegistry
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "TraceEvent",
    "Tracer",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Channel",
    "ChannelClosed",
    "CausalityCheckedQueue",
    "CausalityError",
    "Counter",
    "Histogram",
    "NO_TILE",
    "StatRegistry",
]
