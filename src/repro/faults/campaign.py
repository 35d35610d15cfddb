"""Seeded crash campaigns.

A campaign sweeps many deterministic crash points over one workload run:
a clean baseline run first censuses the trigger space (total cycles,
WPQ-drain/flash-clear/LLT-evict/fence-retire counts, data-drain count),
then every case derives its :class:`FaultPlan` from a single seeded RNG
stream — uniform crash cycles interleaved with named microarchitectural
triggers, plus the mode's injected faults.  The same seed therefore
reproduces the same report byte for byte.

Fault modes:

* ``none`` — crash only; every failure-safe scheme must recover to a
  transaction boundary at every crash point.
* ``reorder`` / ``stuck`` — durability-preserving perturbations (drain
  deferral, stuck NVM banks with bounded retry/backoff); recovery must
  still stay clean.
* ``drop-log`` / ``drop-flag`` / ``drop-data`` / ``torn`` — durability
  violations; the campaign passes when recovery checking *detects* them
  (records at least one inconsistency).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.schemes import Scheme
from repro.faults.harness import CrashCaseResult, run_crash_case
from repro.faults.plan import FaultPlan, StuckBankFault, Trigger
from repro.faults.tracker import ThreadStream
from repro.obs.export import format_tail
from repro.obs.tracer import Tracer
from repro.parallel.journal import SweepJournal, from_payload, to_payload
from repro.parallel.resilience import (
    QuarantineRecord,
    partial_results_lines,
    resilient_map,
)
from repro.sim.config import SystemConfig, fast_nvm_config
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces

#: Campaign fault modes (see module docstring).
FAULT_MODES = (
    "none",
    "drop-log",
    "drop-flag",
    "drop-data",
    "torn",
    "reorder",
    "stuck",
)

#: Modes that must never produce an inconsistency.
CLEAN_MODES = ("none", "reorder", "stuck")

#: Modes that manufacture durability violations; the campaign passes only
#: when recovery checking *detects* them.  The log/flag drops also have
#: static analogs that ``persist-lint`` must flag (see
#: :data:`repro.verify.crossval.ANALOG_MUTATORS`).
VIOLATION_MODES = tuple(mode for mode in FAULT_MODES if mode not in CLEAN_MODES)

@dataclass(frozen=True)
class ReplayedCase:
    """A crash case served from a sweep journal instead of re-executed.

    Holds exactly what the report needs: the case's slot in the
    campaign, its recovery outcome, and its pre-rendered report lines
    (rendered at execution time, so a resumed report is byte-identical
    to an uninterrupted one).
    """

    index: int
    outcome: str
    lines: List[str]


@dataclass
class CampaignResult:
    """Outcome of one (scheme, workload, mode) crash campaign."""

    scheme: Scheme
    workload: str
    mode: str
    seed: int
    threads: int
    baseline_cycles: int
    trigger_counts: Dict[str, int]
    cases: List[CrashCaseResult] = field(default_factory=list)
    #: measured ops fast-forwarded into a warm checkpoint before the
    #: crash window (0 = cold campaign, every case simulates from reset).
    warm_start_ops: int = 0
    #: clock at the warm checkpoint (crash cycles are drawn above it).
    warm_checkpoint_cycle: int = 0
    #: campaign slots of the live ``cases`` (resumed campaigns have gaps
    #: where journaled cases were replayed).
    case_indices: List[int] = field(default_factory=list)
    #: cases replayed from a journal on resume.
    replayed: List[ReplayedCase] = field(default_factory=list)
    #: cases that kept raising under a journal (retried, then set aside).
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def crashes(self) -> int:
        return len(self.cases) + len(self.replayed)

    def _outcomes(self) -> List[str]:
        return [case.outcome for case in self.cases] + [
            replay.outcome for replay in self.replayed
        ]

    @property
    def consistent(self) -> int:
        return sum(1 for outcome in self._outcomes() if outcome == "consistent")

    @property
    def inconsistent(self) -> int:
        return sum(1 for outcome in self._outcomes() if outcome == "inconsistent")

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self._outcomes() if outcome == "completed")

    @property
    def passed(self) -> bool:
        """Clean modes must stay clean; violation modes must be caught.

        A campaign with quarantined cases never passes: its verdict is
        incomplete.
        """
        if self.quarantined:
            return False
        if self.mode in VIOLATION_MODES:
            return self.inconsistent >= 1
        return self.inconsistent == 0

    def case_report_lines(self, index: int, case: CrashCaseResult) -> List[str]:
        """Report lines for one executed case (journaled verbatim)."""
        crash = case.plan.crash
        where = crash.describe() if crash is not None else "no-crash"
        line = (
            f"  [{index:4d}] {where:<24} cycle={case.machine.cycle:<10} "
            f"committed={','.join(str(case.machine.committed[t]) for t in sorted(case.machine.committed))} "
            f"k={','.join(str(k) for k in case.ks)} {case.outcome}"
        )
        if case.detail:
            line += f"  ({case.detail})"
        lines = [line]
        if case.outcome == "inconsistent" and case.machine.trace_tail:
            tail = format_tail(
                case.machine.trace_tail,
                header=f"pre-crash timeline (case {index})",
            )
            lines.extend("    " + row for row in tail.splitlines())
        return lines

    def report(self) -> str:
        """Deterministic text report (no timestamps, no absolute paths)."""
        warm = (
            f" warm-start={self.warm_start_ops}ops"
            f"@{self.warm_checkpoint_cycle}cyc"
            if self.warm_start_ops
            else ""
        )
        lines = [
            f"fault campaign: scheme={self.scheme} workload={self.workload} "
            f"mode={self.mode} seed={self.seed} threads={self.threads}{warm}",
            f"baseline: {self.baseline_cycles} cycles, triggers "
            + " ".join(
                f"{kind}={count}" for kind, count in sorted(self.trigger_counts.items())
            ),
            f"cases: {self.crashes} ({self.consistent} consistent, "
            f"{self.inconsistent} inconsistent, {self.completed} completed) "
            f"-> {'PASS' if self.passed else 'FAIL'}",
        ]
        entries = [
            (index, self.case_report_lines(index, case))
            for index, case in zip(self.case_indices, self.cases)
        ]
        entries.extend(
            (replay.index, replay.lines) for replay in self.replayed
        )
        for _, case_lines in sorted(entries, key=lambda entry: entry[0]):
            lines.extend(case_lines)
        lines.extend(partial_results_lines(self.quarantined))
        return "\n".join(lines) + "\n"


def _make_trigger(rng: random.Random, index: int, total_cycles: int,
                  counts: Dict[str, int], mode: str,
                  cycle_floor: int = 0) -> Trigger:
    """Interleave named microarchitectural triggers (when the baseline
    produced any) with uniform crash cycles.

    The admission-drop modes detect only inside partial-durability
    windows — between the WPQ admissions of one commit burst — so they
    crash at named triggers every other case; the others every fourth.
    ``cycle_floor`` keeps warm-checkpoint campaigns from drawing crash
    cycles inside the already-simulated prefix.
    """
    named = [kind for kind, count in sorted(counts.items()) if count > 0]
    named_every = 2 if mode in ("drop-log", "drop-flag") else 4
    if named and index % named_every == named_every - 1:
        kind = named[(index // named_every) % len(named)]
        return Trigger(kind, rng.randrange(1, counts[kind] + 1))
    return Trigger(
        "cycle",
        rng.randrange(cycle_floor + 1, max(cycle_floor + 2, total_cycles)),
    )


def _pick_drains(rng: random.Random, data_drains: int, how_many: int) -> frozenset:
    if data_drains <= 0:
        return frozenset({1})
    count = min(how_many, data_drains)
    return frozenset(rng.sample(range(1, data_drains + 1), count))


def _make_plan(
    mode: str,
    rng: random.Random,
    trigger: Trigger,
    data_drains: int,
    banks: int,
    total_cycles: int,
) -> FaultPlan:
    seed = rng.randrange(1 << 31)
    if mode == "none":
        return FaultPlan(seed=seed, crash=trigger)
    if mode == "drop-log":
        return FaultPlan(seed=seed, crash=trigger, drop_log_every=1)
    if mode == "drop-flag":
        return FaultPlan(seed=seed, crash=trigger, drop_flag_every=rng.choice((1, 2)))
    if mode == "drop-data":
        return FaultPlan(
            seed=seed,
            crash=trigger,
            drop_data_drains=_pick_drains(rng, data_drains, rng.randrange(1, 4)),
        )
    if mode == "torn":
        return FaultPlan(
            seed=seed,
            crash=trigger,
            torn_data_drains=_pick_drains(rng, data_drains, rng.randrange(1, 4)),
        )
    if mode == "reorder":
        return FaultPlan(
            seed=seed,
            crash=trigger,
            defer_data_drains=_pick_drains(rng, data_drains, rng.randrange(1, 6)),
        )
    if mode == "stuck":
        start = rng.randrange(0, max(1, total_cycles))
        return FaultPlan(
            seed=seed,
            crash=trigger,
            stuck_banks=(
                StuckBankFault(
                    bank=rng.randrange(banks),
                    start_cycle=start,
                    end_cycle=start + rng.randrange(500, 5000),
                    backoff_cycles=rng.choice((32, 64, 128)),
                    max_retries=rng.randrange(4, 9),
                ),
            ),
        )
    raise ValueError(f"unknown fault mode {mode!r}; choose one of {', '.join(FAULT_MODES)}")


def _campaign_case_keys(
    crashes: int,
    scheme: Scheme,
    workload_name: str,
    mode: str,
    seed: int,
    threads: int,
    max_cycles: int,
    trace_tail: int,
    warm_start_ops: int,
    config: SystemConfig,
    workload_kwargs: Dict[str, object],
) -> List[str]:
    """Journal keys for every case: campaign-identity digest + slot.

    The digest covers everything that shapes a case's plan or report, so
    a resumed campaign can only ever be served records produced by an
    identically-parameterized run.
    """
    from repro.parallel.cellspec import canonical_json, config_to_dict

    identity = canonical_json(
        {
            "kind": "fault-campaign",
            "scheme": scheme.value,
            "workload": workload_name,
            "mode": mode,
            "seed": seed,
            "threads": threads,
            "crashes": crashes,
            "max_cycles": max_cycles,
            "trace_tail": trace_tail,
            "warm_start_ops": warm_start_ops,
            "config": config_to_dict(config),
            "workload_kwargs": sorted(
                (key, value) for key, value in workload_kwargs.items()
            ),
        }
    )
    digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]
    return [f"faults-{digest}:{index:04d}" for index in range(crashes)]


def run_campaign(
    scheme: Union[Scheme, str],
    workload,
    crashes: int = 100,
    seed: int = 1,
    threads: int = 1,
    mode: str = "none",
    config: Optional[SystemConfig] = None,
    max_cycles: int = 500_000_000,
    trace_tail: int = 0,
    warm_start_ops: int = 0,
    journal: Optional[SweepJournal] = None,
    **workload_kwargs,
) -> CampaignResult:
    """Sweep ``crashes`` planned crash points over one workload run.

    ``trace_tail`` > 0 runs every case with a ring-buffered tracer and
    keeps the last ``trace_tail`` cycles of events in each crash's
    :class:`~repro.faults.harness.MachineState`; the report prints the
    pre-crash timeline for every inconsistent case.

    Cases run through the sweep executor,
    :func:`~repro.parallel.resilience.resilient_map`, keyed by a
    campaign-identity digest plus the case's slot.  Every case's plan
    is drawn before any case runs, so executed cases are byte-identical
    with or without a resume.  Without a ``journal`` the first case that
    raises fails the campaign.  With one, every case is journaled
    write-ahead, a killed campaign resumes without re-running finished
    cases (the resumed report equals the uninterrupted one), and a case
    that keeps raising is retried, then quarantined: the report lists it
    under a PARTIAL RESULTS footer and the campaign does not pass.

    ``warm_start_ops`` > 0 simulates that many measured ops *once*,
    snapshots the machine at the drained boundary, and launches every
    crash case from the restored snapshot — wall time per case covers
    only the crash window, not the prefix.  Crash cycles are drawn above
    the checkpoint cycle.  Sound because every scheme flushes written
    lines before transaction end, so the checkpoint's durable image
    equals the golden image the continuation traces start from.
    """
    scheme = Scheme.parse(scheme)
    if not scheme.failure_safe:
        raise ValueError(
            f"scheme {scheme} is not failure safe; crash campaigns apply to "
            f"the logging schemes (PMEM, PMEM+pcommit, ATOM, Proteus)"
        )
    workload_cls = resolve_workload(workload)
    if mode not in FAULT_MODES:
        raise ValueError(
            f"unknown fault mode {mode!r}; choose one of {', '.join(FAULT_MODES)}"
        )
    if config is None:
        config = fast_nvm_config(cores=max(1, threads))

    snapshot = None
    if warm_start_ops:
        from repro.sim.simulator import Simulator
        from repro.snapshot.state import capture_machine

        workloads = [
            workload_cls(thread_id=thread_id, seed=seed, **workload_kwargs)
            for thread_id in range(threads)
        ]
        if not 0 < warm_start_ops < workloads[0].sim_ops:
            raise ValueError(
                f"warm_start_ops must fall inside (0, {workloads[0].sim_ops}) "
                f"measured ops, got {warm_start_ops}"
            )
        prefix = [w.generate_segment(warm_start_ops) for w in workloads]
        presim = Simulator(config, scheme, prefix)
        presim.run(max_cycles=max_cycles)
        snapshot = capture_machine(
            presim, {w.thread_id: w.cursor() for w in workloads}
        )
        traces = [
            w.generate_segment(w.sim_ops - warm_start_ops) for w in workloads
        ]
        models = {
            trace.thread_id: ThreadStream(
                trace,
                scheme,
                sw_log_cursor=snapshot.sw_log_cursors.get(trace.thread_id),
            )
            for trace in traces
        }
    else:
        traces = generate_traces(
            workload_cls, threads=threads, seed=seed, **workload_kwargs
        )
        models = {
            trace.thread_id: ThreadStream(trace, scheme) for trace in traces
        }

    # Clean census run: must complete and recover to the final image.
    baseline = run_crash_case(
        scheme, traces, models, FaultPlan(seed=seed), config=config,
        max_cycles=max_cycles, base_snapshot=snapshot,
    )
    if baseline.outcome != "completed":
        raise RuntimeError(
            f"fault-free baseline did not complete cleanly: "
            f"{baseline.outcome} ({baseline.detail})"
        )
    # Sample crash cycles while the cores are still executing; the final
    # controller drain tail holds no new durability decisions.
    total_cycles = baseline.machine.core_finish_cycle or baseline.machine.cycle
    counts = baseline.machine.trigger_counts
    data_drains = baseline.machine.data_drains

    rng = random.Random(
        f"faults:{scheme.value}:{workload_cls.name}:{mode}:{seed}:{threads}"
    )
    cycle_floor = snapshot.cycle if snapshot is not None else 0
    result = CampaignResult(
        scheme=scheme,
        workload=workload_cls.name,
        mode=mode,
        seed=seed,
        threads=threads,
        baseline_cycles=total_cycles,
        trigger_counts=dict(counts),
        warm_start_ops=warm_start_ops,
        warm_checkpoint_cycle=cycle_floor,
    )
    # Every plan is drawn before any case runs, in case order: the plans
    # depend only on the baseline, so a resumed campaign re-draws exactly
    # the plans of an uninterrupted one, whichever cases it replays.
    plans = []
    for index in range(crashes):
        trigger = _make_trigger(
            rng, index, total_cycles, counts, mode, cycle_floor=cycle_floor
        )
        plans.append(
            _make_plan(
                mode, rng, trigger, data_drains, config.memory.banks,
                total_cycles,
            )
        )

    def run_case(item: Tuple[int, FaultPlan]) -> Tuple[int, CrashCaseResult]:
        index, plan = item
        # Fresh ring per case: MachineState keeps only this crash's tail.
        tracer = Tracer(capacity=4096) if trace_tail > 0 else None
        case = run_crash_case(
            scheme,
            traces,
            models,
            plan,
            config=config,
            max_cycles=max_cycles,
            tracer=tracer,
            trace_tail_cycles=trace_tail,
            base_snapshot=snapshot,
        )
        return index, case

    def encode(value: Tuple[int, CrashCaseResult]) -> Mapping[str, Any]:
        index, case = value
        lines = result.case_report_lines(index, case)
        return to_payload(ReplayedCase(index, case.outcome, lines))

    keys = _campaign_case_keys(
        crashes, scheme, workload_cls.name, mode, seed, threads,
        max_cycles, trace_tail, warm_start_ops, config, workload_kwargs,
    )
    campaign = f"{scheme.value}/{workload_cls.name}/{mode}"
    values, result.quarantined = resilient_map(
        run_case,
        list(enumerate(plans)),
        keys,
        journal=journal,
        encode=encode,
        decode=partial(from_payload, ReplayedCase),
        descriptions={
            key: {"campaign": campaign, "case": index}
            for index, key in enumerate(keys)
        },
    )
    for value in values:
        if isinstance(value, ReplayedCase):
            result.replayed.append(value)
        elif value is not None:
            index, case = value
            result.cases.append(case)
            result.case_indices.append(index)
    return result
