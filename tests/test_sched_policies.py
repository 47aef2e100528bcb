"""TileMux scheduling disciplines (``rr`` and ``edf``).

Three layers:

* unit behaviour of the two ready queues against the deque surface
  TileMux consumes;
* config plumbing — ``SystemConfig.sched``;
* equivalence — an explicit ``rr`` (and ``edf`` without deadlines)
  leaves the trace of a real workload byte-identical to an unconfigured
  build, which is what keeps every golden digest valid.
"""

from collections import deque

import pytest

from repro.api import SystemConfig, build_system
from repro.mux.sched import SCHED_POLICIES, EdfQueue, make_ready_queue
from repro.sim.trace import capture
from repro.testing.golden import canonical_json

LIMIT = 10**13


class FakeAct:
    def __init__(self, name, deadline_ps=None):
        self.name = name
        self.deadline_ps = deadline_ps

    def __repr__(self):
        return f"FakeAct({self.name})"


# -- unit: the disciplines ----------------------------------------------------

def test_make_policy_covers_all_disciplines():
    queues = {p: type(make_ready_queue(p)) for p in SCHED_POLICIES}
    assert queues == {"rr": deque, "edf": EdfQueue}


def test_round_robin_is_fifo_with_deque_surface():
    q = make_ready_queue("rr")
    a, b, c = FakeAct("a"), FakeAct("b"), FakeAct("c")
    for act in (a, b, c):
        q.append(act)
    assert len(q) == 3 and b in q and list(q) == [a, b, c]
    q.remove(b)
    assert [q.popleft(), q.popleft()] == [a, c]
    assert not q


def test_edf_picks_earliest_deadline_ties_and_blanks_fifo():
    q = make_ready_queue("edf")
    none1 = FakeAct("n1")
    late = FakeAct("late", deadline_ps=9_000)
    early = FakeAct("early", deadline_ps=1_000)
    tied = FakeAct("tied", deadline_ps=1_000)
    none2 = FakeAct("n2")
    for act in (none1, late, early, tied, none2):
        q.append(act)
    # earliest deadline first; equal deadlines keep queue order; the
    # deadline-free stragglers drain FIFO behind every deadlined one
    assert [q.popleft() for _ in range(5)] == [early, tied, late,
                                              none1, none2]


def test_edf_without_deadlines_degenerates_to_round_robin():
    q = make_ready_queue("edf")
    acts = [FakeAct(str(i)) for i in range(4)]
    for act in acts:
        q.append(act)
    assert [q.popleft() for _ in range(4)] == acts


# -- config plumbing ----------------------------------------------------------

def test_sched_spec_rejected_on_non_tilemux_kinds():
    assert SCHED_POLICIES == ("rr", "edf")
    for policy in ("fifo", "lottery"):
        with pytest.raises(ValueError, match="unknown sched policy"):
            SystemConfig(sched=policy)
    with pytest.raises(ValueError, match="requires a TileMux kind"):
        SystemConfig(kind="m3x", sched="edf")
    with pytest.raises(ValueError, match="requires a TileMux kind"):
        SystemConfig(kind="linux", sched="edf")
    # the default policy is every kind's
    assert SystemConfig(kind="m3x").sched == "rr"


def _mux_policies(cfg):
    plat = build_system(cfg).platform
    return {tid: tile.mux.sched
            for tid, tile in sorted(plat.tiles.items())
            if getattr(tile, "mux", None) is not None}


def test_sched_spec_reaches_every_tilemux():
    pols = _mux_policies(SystemConfig(kind="m3v", n_proc_tiles=3,
                                      sched="edf"))
    assert set(pols.values()) == {"edf"} and len(pols) == 3


# -- equivalence: the default policy keeps the trace byte-identical -----------

def _pingpong_trace(**sched):
    """A small two-tile RPC workload, traced."""
    with capture() as tracer:
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=3,
                                         n_mem_tiles=1, **sched)).platform
        ctrl = plat.controller
        env = {}

        def server(api):
            while "rep" not in env:
                yield api.sim.timeout(1_000_000)
            for _ in range(6):
                msg = yield from api.recv(env["rep"])
                yield from api.reply(env["rep"], msg, data=msg.data + 1,
                                     size=16)

        def client(api):
            while "sep" not in env:
                yield api.sim.timeout(1_000_000)
            for i in range(6):
                v = yield from api.call(env["sep"], env["rpl"], data=i,
                                        size=16)
                assert v == i + 1
                yield from api.compute(150_000)

        srv = plat.run_proc(ctrl.spawn("server", 1, server))
        cli = plat.run_proc(ctrl.spawn("client", 2, client))
        sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
        env.update(sep=sep, rep=rep, rpl=rpl)
        plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    return canonical_json(tracer)


def test_default_and_explicit_rr_trace_byte_identical():
    unconfigured = _pingpong_trace()
    explicit_rr = _pingpong_trace(sched="rr")
    assert unconfigured == explicit_rr


def test_edf_differs_only_when_deadlines_exist():
    # without any set_deadline() calls EDF degenerates to round-robin:
    # the same workload must produce the identical trace
    assert _pingpong_trace(sched="edf") == _pingpong_trace()
