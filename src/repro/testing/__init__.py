"""Test-support layer: invariant checkers, fault injection, golden traces.

Built on the opt-in tracer (:mod:`repro.sim.trace`):

* :mod:`repro.testing.invariants` — online checkers that subscribe to a
  tracer and assert system-wide properties over whole executions;
* :mod:`repro.testing.faults` — seeded fault injectors (NoC jitter,
  forced preemption) to stress those properties;
* :mod:`repro.testing.golden` — canonical trace serialization and
  golden-file conformance for the fig6/fig8 microbenchmarks;
* :mod:`repro.testing.chaos` — seeded campaigns composing fault
  storms with overload bursts over the figS serving topology, judged
  against SLO floors and the invariant checkers.
"""

from repro.testing.chaos import (
    CampaignResult,
    ChaosCampaign,
    Floor,
    Phase,
    run_campaign,
    run_campaigns,
    standard_campaigns,
)
from repro.testing.faults import (
    ForcedPreemption,
    NocJitter,
    standard_plan,
)
from repro.testing.invariants import (
    ALL_INVARIANTS,
    BlockedWakeup,
    CoreReqQueueBound,
    CurActConsistency,
    EndpointOwnership,
    InvariantSuite,
    InvariantViolation,
    MessageConservation,
)

__all__ = [
    "ALL_INVARIANTS",
    "BlockedWakeup",
    "CoreReqQueueBound",
    "CurActConsistency",
    "EndpointOwnership",
    "InvariantSuite",
    "InvariantViolation",
    "MessageConservation",
    "ForcedPreemption",
    "NocJitter",
    "standard_plan",
    "CampaignResult",
    "ChaosCampaign",
    "Floor",
    "Phase",
    "run_campaign",
    "run_campaigns",
    "standard_campaigns",
]
