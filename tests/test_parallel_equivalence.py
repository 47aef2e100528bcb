"""Differential test layer for the cross-tile causality check.

Three layers of evidence that a checked run is *indistinguishable* from
an unchecked one, plus the check's own verdicts:

1. **Golden conformance** — every committed digest replays byte-identical
   {unchecked, checked, checked on the lazy NoC path} × {calendar, heap}.
   :class:`repro.sim.parallel.CausalityCheckedQueue` pops straight from
   the serial queue, so this must hold exactly, not approximately.
2. **Property-based differential testing** — hypothesis generates random
   inter-tile send/receive schedules (same-timestamp ties, messages
   landing exactly on the lookahead boundary) and runs them with and
   without the check; event histories and canonical traces must be
   identical.
3. **Mutation re-runs** — the mutation tests (a deliberately broken
   mechanism must be *caught* by the online invariant checkers) repeat
   under ``REPRO_SHARDS=1``: the checkers observe the same trace stream,
   so a bug the unchecked engine surfaces must also surface checked.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SystemConfig, build_system
from repro.sim import NO_TILE, Simulator, engine
from repro.sim.parallel import CausalityCheckedQueue, CausalityError
from repro.sim.trace import capture
from repro.testing.golden import (
    GOLDEN_DIR,
    canonical_events,
    digest,
    diff_digest,
    load_golden,
    record_trace,
)

GOLDEN_NAMES = sorted(p.stem for p in Path(GOLDEN_DIR).glob("*.json"))

# (REPRO_SHARDS, REPRO_NOC_BATCH).  The checked arms keep the ids the
# 2- and 4-shard arms had before the check went per tile, so the test
# ids stay stable: "shards2" checks the batched NoC path, whose arrivals
# are the cross-tile pushes; "shards4" checks the lazy per-hop path,
# whose transfer Processes run under NO_TILE.
CHECK_CONFIGS = [
    pytest.param("", "1", id="serial"),
    pytest.param("1", "1", id="shards2"),
    pytest.param("1", "0", id="shards4"),
]
SCHEDULERS = ["calendar", "heap"]


# -- layer 1: golden conformance ----------------------------------------------

@pytest.mark.golden
@pytest.mark.parametrize("name", GOLDEN_NAMES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("checked,noc_batch", CHECK_CONFIGS)
def test_golden_digest_survives_sharding(name, scheduler, checked, noc_batch,
                                         monkeypatch):
    # with the check on, a lookahead violation anywhere in the platform
    # build or the workload raises and fails the test
    monkeypatch.setenv("REPRO_SHARDS", checked)
    monkeypatch.setenv("REPRO_NOC_BATCH", noc_batch)
    engine.set_default_scheduler(scheduler)
    try:
        actual = digest(record_trace(name))
    finally:
        engine.set_default_scheduler(None)
    problems = diff_digest(load_golden(name), actual)
    assert not problems, (
        f"{name} diverged {'checked' if checked else 'unchecked'} "
        f"scheduler={scheduler} noc_batch={noc_batch}:\n  "
        + "\n  ".join(problems))


# -- layer 2: property-based differential testing -----------------------------
#
# A synthetic multi-tile workload small enough for hypothesis to shrink:
# every tile runs a program of "local" steps (timeouts with deliberately
# colliding timestamps) and "send" steps (an event created in the
# *destination* tile's scope and triggered ``lookahead + slack`` ahead —
# slack 0 lands exactly on the conservative boundary).

LOOKAHEAD = 10

_OP = st.one_of(
    st.tuples(st.just("local"), st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.lists(_OP, max_size=6), min_size=2, max_size=5)


def _run_program(programs, scheduler, checked):
    """Returns (history, canonical trace, final now) for one engine."""
    n_tiles = len(programs)
    history = []
    with capture() as tracer:
        sim = Simulator(scheduler=scheduler, check_causality=checked,
                        lookahead=LOOKAHEAD)

        def tile_proc(tid, ops):
            for kind, a, b in ops:
                if kind == "local":
                    yield sim.timeout(a)
                    history.append(("local", tid, sim.now, b))
                else:
                    dst = (tid + 1 + a) % n_tiles
                    with sim.tile_scope(dst):
                        ev = sim.event()
                    ev.callbacks.append(
                        lambda e, dst=dst, b=b:
                            history.append(("recv", dst, sim.now, b)))
                    ev.succeed(delay=LOOKAHEAD + b)
                    history.append(("send", tid, sim.now, b))

        for tid, ops in enumerate(programs):
            with sim.tile_scope(tid):
                sim.process(tile_proc(tid, ops), name=f"tile{tid}")
        sim.run()
    return history, canonical_events(tracer), sim.now


@given(programs=_PROGRAMS)
@settings(max_examples=25, deadline=None)
def test_sharded_engine_is_serial_engine(programs):
    for scheduler in SCHEDULERS:
        serial = _run_program(programs, scheduler, checked=False)
        checked = _run_program(programs, scheduler, checked=True)
        assert checked[0] == serial[0], (
            f"event histories diverged (scheduler={scheduler})")
        assert checked[1] == serial[1], (
            f"canonical traces diverged (scheduler={scheduler})")
        assert checked[2] == serial[2]


@given(programs=_PROGRAMS)
@settings(max_examples=10, deadline=None)
def test_calendar_and_heap_agree_sharded(programs):
    """The cross-scheduler tie-order invariant (DESIGN.md §13) holds
    with the causality check wrapped around either scheduler."""
    cal = _run_program(programs, "calendar", checked=True)
    hp = _run_program(programs, "heap", checked=True)
    assert cal[0] == hp[0]
    assert cal[1] == hp[1]


# -- causality policing --------------------------------------------------------

def _checked_sim():
    return Simulator(check_causality=True, lookahead=LOOKAHEAD)


def _push_between_tiles(sim, src, dst, delay, callback=None):
    """From ``src``'s context at t=5, schedule an event of ``dst``."""
    def sender():
        yield sim.timeout(5)
        with sim.tile_scope(dst):
            ev = sim.event()
        if callback is not None:
            ev.callbacks.append(callback)
        ev.succeed(delay=delay)

    with sim.tile_scope(src):
        sim.process(sender(), name="sender")


def test_lookahead_violation_raises_in_strict_mode():
    sim = _checked_sim()
    _push_between_tiles(sim, 0, 1, LOOKAHEAD - 1)
    with pytest.raises(CausalityError):
        sim.run()


def test_planted_shortcut_between_neighbour_tiles_raises():
    """A push from tile 0 to tile 1 of an 8-tile platform, one ps inside
    the NoC bound.  Neighbour tiles land in one block of any coarse
    contiguous partition (4 blocks here), so only a per-tile comparison
    sees this shortcut."""
    system = build_system(SystemConfig(kind="m3v", n_proc_tiles=8,
                                       check_causality=True))
    sim = system.sim
    lookahead = system.fabric.params.lookahead_ps()

    def shortcut():
        yield sim.timeout(1)
        with sim.tile_scope(1):
            ev = sim.event()
        ev.succeed(delay=lookahead - 1)

    with sim.tile_scope(0):
        proc = sim.process(shortcut(), name="shortcut")
    with pytest.raises(CausalityError, match="tile 1 .* from tile 0"):
        sim.run_until_event(proc, limit=sim.now + 10**9)


def test_boundary_send_is_not_a_violation():
    sim = _checked_sim()
    seen = []
    _push_between_tiles(sim, 0, 1, LOOKAHEAD,
                        callback=lambda e: seen.append(sim.now))
    sim.run()
    assert seen == [5 + LOOKAHEAD]
    assert sim.causality_stats.cross_pushes == 1


def test_same_tile_and_no_tile_pushes_are_not_checked():
    sim = _checked_sim()
    _push_between_tiles(sim, 0, 0, 0)
    _push_between_tiles(sim, 0, NO_TILE, 0)
    _push_between_tiles(sim, NO_TILE, 1, 0)
    sim.run()
    assert sim.causality_stats.cross_pushes == 0


# -- plumbing --------------------------------------------------------------------

def test_env_selects_sharding(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert Simulator().causality_stats is None
    monkeypatch.setenv("REPRO_SHARDS", "0")
    assert Simulator().causality_stats is None
    monkeypatch.setenv("REPRO_SHARDS", "1")
    sim = Simulator()
    assert isinstance(sim._eq, CausalityCheckedQueue)
    assert sim.causality_stats is not None
    # an explicit argument wins over the environment
    assert Simulator(check_causality=False).causality_stats is None


def test_shard_stats_accounting():
    sim = Simulator(check_causality=True, lookahead=LOOKAHEAD)

    def prog(tid):
        yield sim.timeout(1)
        with sim.tile_scope(1 - tid):
            ev = sim.event()
        ev.callbacks.append(lambda e: None)
        ev.succeed(delay=LOOKAHEAD)

    for tid in range(2):
        with sim.tile_scope(tid):
            sim.process(prog(tid), name=f"t{tid}")
    sim.run()
    stats = sim.causality_stats
    assert stats.cross_pushes == 2
    assert stats.events == sum(stats.events_by_tile.values()) > 0
    assert set(stats.events_by_tile) == {0, 1}


def test_fig9_64_shard_stats_are_pinned(monkeypatch):
    """The check's outputs on the 64-tile fig9 point whose unchecked
    twin ``tests/test_perf_gate.py`` pins: every cross-tile push goes
    through the NoC, and the per-tile tallies sum to its 88,598
    events."""
    from repro.core.exps import fig9

    systems = []

    def build(config):
        systems.append(build_system(config))
        return systems[-1]

    monkeypatch.setattr(fig9, "build_system", build)
    fig9.run_fig9_point(fig9.Fig9Point("m3v", 64, trace="find", runs=1,
                                       find_dirs=2, find_files=3,
                                       checked=True))
    (system,) = systems
    stats = system.sim.causality_stats
    assert stats.cross_pushes == 1087
    by_tile = stats.events_by_tile
    # 64 processing tiles, the controller, 4 memory tiles, and NO_TILE
    assert len(by_tile) == 70
    assert set(by_tile) == set(range(69)) | {NO_TILE}
    assert by_tile[NO_TILE] == 2851
    assert stats.events == sum(by_tile.values()) == 88598


# -- layer 3: the invariant checkers under REPRO_SHARDS=1 ---------------------
#
# The five online checkers subscribe to the trace stream; a checked run
# produces the identical stream (layer 1), so every mutation the serial
# suite catches must be caught under the check too.  Re-run the
# invariant-checker mutation tests — and one green control — with the
# env knob set.

import tests.test_invariants_systems as _inv


@pytest.fixture
def _sharded_env(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "1")
    return monkeypatch


def test_mutation_ownership_bypass_caught_sharded(_sharded_env):
    _inv.test_mutation_ownership_bypass_is_caught(_sharded_env)


def test_mutation_forgotten_cur_act_caught_sharded(_sharded_env):
    _inv.test_mutation_forgotten_cur_act_decrement_is_caught(_sharded_env)


def test_unmutated_control_still_green_sharded(_sharded_env):
    _inv.test_unmutated_foreign_fetch_is_refused()


def test_invariants_under_faults_sharded(_sharded_env):
    _inv.test_m3v_invariants_under_faults(seed=11)
