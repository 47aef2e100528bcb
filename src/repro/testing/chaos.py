"""Chaos campaigns: seeded fault storms composed with overload bursts.

A :class:`ChaosCampaign` is a named, deterministic sequence of
:class:`Phase` s.  Each phase runs one figS serving point
(:mod:`repro.core.exps.figs`) — the full multi-tenant topology with
the PR-1 invariant checkers attached online — under a chosen mix of
NoC fault rate and offered load, then asserts *campaign-level*
guarantees on the result:

* **conservation / exactly-once** — every generated request resolves
  exactly once (completed, shed, or failed); ``_run_serving`` already
  refuses to return otherwise, and the phase re-checks the arithmetic
  on the reduced stats;
* **invariants** — any :class:`repro.testing.invariants`
  violation (lost wakeups, credit leaks, cur-act divergence) raises
  out of the run and fails the phase;
* **SLO floors** — per-phase lower bounds (:class:`Floor`) on goodput
  and upper bounds on tail latency and failure count, so a campaign
  distinguishes "survived the burst" from "survived with service".

Campaigns are pure functions of their seed: the same seed yields the
same arrival schedule, the same fault pattern and therefore the same
verdicts, which is what lets CI run them as a strict gate
(``scripts/check_chaos.sh``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Floor", "Phase", "ChaosCampaign", "PhaseResult",
           "CampaignResult", "run_campaign", "standard_campaigns",
           "run_campaigns"]


@dataclass(frozen=True)
class Floor:
    """SLO floor for one phase; ``None`` disables a bound."""

    min_goodput_frac: Optional[float] = None  # of offered load
    max_p99_us: Optional[float] = None
    max_failed_frac: Optional[float] = None   # of generated requests

    def check(self, res: Dict, expected: int,
              offered_rps: float) -> List[str]:
        problems: List[str] = []
        if self.min_goodput_frac is not None:
            floor = self.min_goodput_frac * offered_rps
            if res["goodput_rps"] < floor:
                problems.append(
                    f"goodput {res['goodput_rps']:.0f} rps below floor "
                    f"{floor:.0f} ({self.min_goodput_frac:.0%} of offered)")
        if self.max_p99_us is not None and res["p99_us"] > self.max_p99_us:
            problems.append(f"p99 {res['p99_us']:.0f} us above ceiling "
                            f"{self.max_p99_us:.0f} us")
        if self.max_failed_frac is not None:
            ceiling = self.max_failed_frac * expected
            if res["failed"] > ceiling:
                problems.append(f"{res['failed']} failed requests above "
                                f"ceiling {ceiling:.1f}")
        return problems


@dataclass(frozen=True)
class Phase:
    """One leg of a campaign: a (load, fault mix) applied to the
    serving topology, judged against a :class:`Floor`."""

    label: str
    load: float
    fault_rate: float
    floor: Floor = field(default_factory=Floor)
    system: str = "m3v"
    # adaptive-placement knobs (defaults reproduce the classic static
    # spread-out layout byte-identically — see FigSPoint)
    sched: str = "rr"
    rebalance: bool = False
    pack: int = 1
    skew: float = 0.0
    # mechanism assertion: fail the phase unless the rebalancer actually
    # migrated at least this many activities (keeps the migration-storm
    # campaign from passing vacuously with the rebalancer parked)
    min_migrations: int = 0


@dataclass(frozen=True)
class ChaosCampaign:
    name: str
    phases: List[Phase]
    seed: int = 1
    requests: int = 10          # per gateway, per phase
    kv_shards: int = 4
    gateways: int = 3


@dataclass
class PhaseResult:
    label: str
    ok: bool
    problems: List[str]
    stats: Dict


@dataclass
class CampaignResult:
    name: str
    ok: bool
    phases: List[PhaseResult]

    def summary(self) -> str:
        lines = [f"campaign {self.name}: "
                 f"{'PASS' if self.ok else 'FAIL'}"]
        for ph in self.phases:
            mark = "ok  " if ph.ok else "FAIL"
            s = ph.stats
            lines.append(
                f"  [{mark}] {ph.label:<24s} goodput "
                f"{s.get('goodput_rps', 0):7.0f} rps  "
                f"p99 {s.get('p99_us', 0):8.0f} us  "
                f"shed {s.get('shed', 0):3d}  "
                f"failed {s.get('failed', 0):2d}  "
                f"mig {s.get('migrations', 0):2d}")
            for problem in ph.problems:
                lines.append(f"         - {problem}")
        return "\n".join(lines)


def _run_phase(campaign: ChaosCampaign, index: int,
               phase: Phase) -> PhaseResult:
    from repro.core.exps.figs import FigSPoint, run_figs_point

    pt = FigSPoint(system=phase.system, load=phase.load,
                   kv_shards=campaign.kv_shards,
                   gateways=campaign.gateways,
                   requests=campaign.requests,
                   fault_rate=phase.fault_rate,
                   sched=phase.sched, rebalance=phase.rebalance,
                   pack=phase.pack, skew=phase.skew,
                   # phase index folds into the seed so two phases with
                   # the same knobs still see different fault patterns
                   seed=campaign.seed * 1000 + index)
    expected = campaign.gateways * campaign.requests
    problems: List[str] = []
    try:
        res = run_figs_point(pt)
    except Exception as exc:  # invariant violation or stuck run
        return PhaseResult(phase.label, False,
                           [f"{type(exc).__name__}: {exc}"], {})
    resolved = res["completed"] + res["shed"] + res["failed"]
    if resolved != expected:
        problems.append(f"conservation: {resolved}/{expected} requests "
                        f"resolved exactly once")
    problems += phase.floor.check(res, expected, res["offered_rps"])
    if res.get("migrations", 0) < phase.min_migrations:
        problems.append(f"only {res.get('migrations', 0)} live migrations, "
                        f"phase requires >= {phase.min_migrations}")
    return PhaseResult(phase.label, not problems, problems, res)


def run_campaign(campaign: ChaosCampaign) -> CampaignResult:
    results = [_run_phase(campaign, i, ph)
               for i, ph in enumerate(campaign.phases)]
    return CampaignResult(campaign.name, all(r.ok for r in results),
                          results)


def standard_campaigns(requests: int = 10) -> List[ChaosCampaign]:
    """The CI campaign set (``requests`` per gateway per phase).

    Floors are deliberately loose relative to the committed figS curve
    — they are meltdown detectors, not perf gates; the perf gate is
    ``scripts/check_perf.sh``, an A/B run of ``bench/`` against the
    parent commit.
    """
    steady = Floor(min_goodput_frac=0.5, max_p99_us=20_000.0,
                   max_failed_frac=0.2)
    burst = Floor(min_goodput_frac=0.3, max_p99_us=40_000.0,
                  max_failed_frac=0.2)
    survive = Floor(max_failed_frac=0.35)
    campaigns = [
        ChaosCampaign(
            name="m3v-overload-burst", requests=requests,
            phases=[
                Phase("steady 0.7x, 2% faults", 0.7, 0.02, steady),
                Phase("burst 2.0x, 2% faults", 2.0, 0.02, burst),
                Phase("burst 2.0x, 8% faults", 2.0, 0.08, survive),
            ]),
        ChaosCampaign(
            name="m3v-fault-storm", requests=requests,
            phases=[
                Phase("storm 1.0x, 10% faults", 1.0, 0.10, survive),
                Phase("recovery 0.7x, 2% faults", 0.7, 0.02, steady),
            ]),
        ChaosCampaign(
            name="m3v-migration-storm", requests=requests,
            phases=[
                # packed, skewed KV layout with the EDF mux and the
                # controller rebalancer online: the hot tile must shed
                # replicas via live migration (min_migrations makes the
                # gate non-vacuous), and the conversation state has to
                # survive the moves exactly-once
                Phase("skewed steady 1.0x, 2% faults", 1.0, 0.02,
                      survive, sched="edf", rebalance=True,
                      pack=2, skew=0.8, min_migrations=1),
                # then a fault storm on the same layout: quarantined
                # tiles are evacuated mid-storm while requests keep
                # arriving; only conservation + invariants are floored
                Phase("storm 1.2x, 8% faults", 1.2, 0.08,
                      survive, sched="edf", rebalance=True,
                      pack=2, skew=0.8, min_migrations=1),
            ]),
        ChaosCampaign(
            name="m3x-under-pressure", requests=requests,
            phases=[
                # no goodput floor: the M3x slow path is *expected* to
                # degrade — the campaign only asserts the invariants
                # hold and requests are conserved while it does
                Phase("m3x burst 1.5x, 2% faults", 1.5, 0.02,
                      Floor(max_failed_frac=0.35), system="m3x"),
            ]),
    ]
    return campaigns


def run_campaigns(campaigns: Optional[List[ChaosCampaign]] = None,
                  requests: int = 10) -> List[CampaignResult]:
    return [run_campaign(c)
            for c in (campaigns or standard_campaigns(requests))]
