"""Cycle-level fault injection for the timing simulator.

persist-verify (:mod:`repro.verify`) enumerates every crash state the
lowered instruction stream permits; this package crashes the *real*
timing machine instead.  A seeded :class:`FaultPlan` kills the simulation at an
arbitrary cycle or at a named microarchitectural trigger (Nth WPQ drain,
LPQ flash clear, LLT eviction, fence retirement) and can additionally
inject memory-system faults — dropped or reordered WPQ drains, torn
cache-line writes, stuck NVM banks with bounded retry/backoff.

Both checkers share one model of durable contents
(:mod:`repro.persistence`).  The :class:`DurabilityTracker` replays each
thread's retired instructions through the persistency model persist-verify
walks, and stamps every WPQ admission with the line's version in it.  At
the crash it builds each thread's
:class:`~repro.persistence.crash.CrashImage` with the function
persist-verify uses for its frontiers, runs the scheme's recovery, and
checks atomicity against the candidate images derived from the thread's
lowered stream.  :func:`repro.verify.containment.check_containment`
holds every image of an uninjected crash to the frontiers persist-verify
enumerates.

:func:`run_campaign` sweeps many crash points over one workload run and
produces a deterministic, byte-reproducible report
(``python -m repro faults --scheme proteus --workload btree --crashes 200
--seed 7``).
"""

from repro.faults.campaign import CampaignResult, FAULT_MODES, run_campaign
from repro.faults.harness import (
    CrashCaseResult,
    FaultInjector,
    MachineState,
    run_crash_case,
)
from repro.faults.plan import FaultPlan, StuckBankFault, TRIGGER_KINDS, Trigger
from repro.faults.tracker import DurabilityTracker, ThreadStream

__all__ = [
    "CampaignResult",
    "CrashCaseResult",
    "DurabilityTracker",
    "FAULT_MODES",
    "FaultInjector",
    "FaultPlan",
    "MachineState",
    "StuckBankFault",
    "TRIGGER_KINDS",
    "ThreadStream",
    "Trigger",
    "run_campaign",
    "run_crash_case",
]
