"""Fault-injection harness: wire a :class:`FaultPlan` into the machine.

The :class:`FaultInjector` attaches to every observation point the timing
simulator exposes — memory-controller fault hooks, WPQ/LPQ admission
observers, the NVM device write observer, core retirement observers and
the hardware-logging adapters' log-slot assignments — counts trigger
events, halts the engine when the plan's crash trigger fires, and routes
every durability event into the :class:`DurabilityTracker`.

:func:`run_crash_case` runs one planned crash end to end: simulate until
the trigger fires, capture the machine state, build each thread's
durable image from the versions its lines were admitted at, run the
scheme's recovery, and check atomicity against the candidate images
derived from the thread's lowered stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.codegen import REGION_DATA, REGION_FLAG, REGION_HWLOG, REGION_SWLOG
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, FENCE_KINDS
from repro.isa.trace import OpTrace
from repro.mem.memctrl import MemoryController
from repro.obs.tracer import TraceEvent, Tracer
from repro.persistence.recovery import check_recovery
from repro.sim.config import SystemConfig, fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.faults.plan import FaultPlan
from repro.faults.tracker import DurabilityTracker, ThreadStream

#: words per cache line, for torn-write subsets.
_WORDS_PER_LINE = CACHE_LINE // 8


class FaultInjector:
    """Implements every fault/observer hook the machine exposes.

    One injector serves one simulation run.  All randomness (torn-write
    word subsets) comes from the plan's seed, so a plan replays
    identically.
    """

    def __init__(self, plan: FaultPlan, tracker: DurabilityTracker) -> None:
        self.plan = plan
        self.tracker = tracker
        self.rng = random.Random(plan.seed)
        #: named-trigger occurrence counts (also the campaign's census).
        self.trigger_counts: Dict[str, int] = {
            "wpq-drain": 0,
            "wpq-admit": 0,
            "lpq-flash-clear": 0,
            "llt-evict": 0,
            "fence-retire": 0,
        }
        self.log_admissions = 0
        self.flag_admissions = 0
        self.data_drains = 0
        self.nvm_writes: Dict[str, int] = {}
        self.sim = None
        self.engine = None
        self.memctrl: Optional[MemoryController] = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, sim) -> None:
        """Called by the simulator once the machine is built."""
        self.tracker.attach(sim)
        self.sim = sim
        self.engine = sim.engine
        self.memctrl = sim.memctrl
        sim.memctrl.fault_hooks = self
        sim.memctrl.wpq.observer = self
        if sim.memctrl.lpq is not None:
            sim.memctrl.lpq.observer = self
        sim.memctrl.device.observer = self
        for core in sim.cores:
            core.retire_observer = self
            adapter = core.adapter
            if hasattr(adapter, "fault_hooks"):
                adapter.fault_hooks = self
            llt = getattr(adapter, "llt", None)
            if llt is not None:
                llt.on_evict = self.on_llt_evict
        crash = self.plan.crash
        if crash is not None and crash.kind == "cycle":
            self.engine.halt_at_cycle(crash.at)

    def _trip(self, kind: str) -> None:
        self.trigger_counts[kind] += 1
        crash = self.plan.crash
        if (
            crash is not None
            and crash.kind == kind
            and self.trigger_counts[kind] == crash.at
        ):
            self.engine.request_halt(f"fault trigger {crash.describe()}")

    # -- core-side hooks -------------------------------------------------------

    def on_retire(self, core_id: int, dyn) -> None:
        self.tracker.on_retire(core_id, dyn)
        if dyn.instr.kind in FENCE_KINDS:
            self._trip("fence-retire")

    def on_log_resolved(self, core_id: int, index: int, log_to: int) -> None:
        self.tracker.on_log_resolved(core_id, index, log_to)

    def on_llt_evict(self, block: int) -> None:
        self._trip("llt-evict")

    # -- controller-side hooks -------------------------------------------------

    def on_queue_admit(self, queue_name: str, entry) -> None:
        self.tracker.on_queue_admit(queue_name, entry)
        if queue_name == "wpq":
            self._trip("wpq-admit")

    def filter_admission(self, entry) -> bool:
        """True drops the write at admission (the ack still fires)."""
        located = self.tracker.classify(entry.addr)
        if located is None:
            return False
        _, region = located
        plan = self.plan
        if region in (REGION_SWLOG, REGION_HWLOG):
            self.log_admissions += 1
            if plan.drop_log_every and self.log_admissions % plan.drop_log_every == 0:
                self.tracker.on_admission_dropped(entry, region)
                return True
        elif region == REGION_FLAG:
            self.flag_admissions += 1
            if plan.drop_flag_every and self.flag_admissions % plan.drop_flag_every == 0:
                self.tracker.on_admission_dropped(entry, region)
                return True
        return False

    def filter_drain(self, queue_name: str, entry) -> str:
        """Verdict for a queue entry popped for device dispatch."""
        if queue_name == "wpq":
            self._trip("wpq-drain")
        located = self.tracker.classify(entry.addr)
        if (
            queue_name != "wpq"
            or entry.category != "data"
            or located is None
            or located[1] != REGION_DATA
        ):
            return "ok"
        self.data_drains += 1
        n = self.data_drains
        plan = self.plan
        if n in plan.drop_data_drains:
            self.tracker.on_drain_dropped(entry)
            return "drop"
        if n in plan.defer_data_drains and self._defer_safe(entry):
            return "defer"
        if n in plan.torn_data_drains:
            self.tracker.on_torn(entry, self._tear(entry))
            return "torn"
        return "ok"

    def _defer_safe(self, entry) -> bool:
        """Deferring must never invert same-line write order: refuse when
        another write to the same line is queued behind this one."""
        wpq = self.memctrl.wpq
        if any(other.addr == entry.addr for other in wpq.entries):
            return False
        return not any(
            waiting.addr == entry.addr for waiting, _ in wpq._admission
        )

    def _tear(self, entry) -> Tuple[int, ...]:
        """Seeded nonempty strict subset of the line's words to lose."""
        line = entry.addr & ~(CACHE_LINE - 1)
        words = [line + 8 * i for i in range(_WORDS_PER_LINE)]
        lost = self.rng.randrange(1, _WORDS_PER_LINE)
        return tuple(sorted(self.rng.sample(words, lost)))

    def stuck_delay(self, addr: int, attempt: int) -> int:
        """Extra cycles before dispatching ``addr`` (0 = proceed)."""
        for fault in self.plan.stuck_banks:
            if attempt >= fault.max_retries:
                continue
            if not fault.start_cycle <= self.engine.cycle < fault.end_cycle:
                continue
            if self.memctrl.device.bank_of(addr) != fault.bank:
                continue
            return fault.backoff_cycles * (1 << min(attempt, 6))
        return 0

    def on_flash_clear(self, thread_id: int, txid: int, dropped: int) -> None:
        self._trip("lpq-flash-clear")

    # -- device-side hooks -----------------------------------------------------

    def on_nvm_write(self, request) -> None:
        self.nvm_writes[request.category] = self.nvm_writes.get(request.category, 0) + 1


@dataclass
class MachineState:
    """Microarchitectural snapshot at the crash (or at completion)."""

    cycle: int
    reason: str
    wpq_occupancy: int
    wpq_waiting: int
    lpq_occupancy: Optional[int]
    #: per-core Proteus LogQ snapshots ({} when the scheme has none).
    logq: Dict[int, Dict[str, int]]
    #: per-core log-area (cur-log / LTA) snapshots.
    log_areas: Dict[int, Dict[str, int]]
    #: per-thread committed-transaction counts at the crash.
    committed: Dict[int, int]
    nvm_writes: Dict[str, int]
    trigger_counts: Dict[str, int]
    data_drains: int
    #: cycle at which every core finished (None when the run crashed
    #: before completion); the final controller drain runs after this.
    core_finish_cycle: Optional[int] = None
    #: pre-crash trace events (the tracer's ring tail); empty unless the
    #: case ran with a tracer and a tail window was requested.
    trace_tail: Tuple[TraceEvent, ...] = ()

    @classmethod
    def capture(
        cls,
        sim,
        injector: FaultInjector,
        tracker: DurabilityTracker,
        reason: str,
        tracer: Optional[Tracer] = None,
        trace_tail_cycles: int = 0,
    ) -> "MachineState":
        logq: Dict[int, Dict[str, int]] = {}
        log_areas: Dict[int, Dict[str, int]] = {}
        for core in sim.cores:
            adapter = core.adapter
            if hasattr(adapter, "logq"):
                logq[core.core_id] = adapter.logq.snapshot()
            area = getattr(adapter, "log_area", None)
            if area is not None:
                log_areas[core.core_id] = area.snapshot()
        return cls(
            cycle=sim.engine.cycle,
            reason=reason,
            wpq_occupancy=sim.memctrl.wpq.occupancy(),
            wpq_waiting=sim.memctrl.wpq.waiting_admission(),
            lpq_occupancy=(
                sim.memctrl.lpq.occupancy() if sim.memctrl.lpq is not None else None
            ),
            logq=logq,
            log_areas=log_areas,
            committed={t: tracker.committed_count(t) for t in sorted(tracker.models)},
            nvm_writes=dict(injector.nvm_writes),
            trigger_counts=dict(injector.trigger_counts),
            data_drains=injector.data_drains,
            core_finish_cycle=sim.core_finish_cycle,
            trace_tail=(
                tracer.tail(trace_tail_cycles)
                if tracer is not None and trace_tail_cycles > 0
                else ()
            ),
        )


@dataclass
class CrashCaseResult:
    """One planned crash, recovered and checked."""

    plan: FaultPlan
    #: "consistent" (crashed, recovery matched a candidate),
    #: "inconsistent" (invariant or atomicity violation), or
    #: "completed" (the trigger never fired; the run finished clean).
    outcome: str
    #: per-thread candidate index recovery landed on (-1 on failure).
    ks: Tuple[int, ...]
    detail: str
    machine: MachineState

    @property
    def crashed(self) -> bool:
        return self.outcome != "completed"


def run_crash_case(
    scheme: Scheme,
    op_traces: List[OpTrace],
    models: Dict[int, ThreadStream],
    plan: FaultPlan,
    config: Optional[SystemConfig] = None,
    max_cycles: int = 500_000_000,
    tracer: Optional[Tracer] = None,
    trace_tail_cycles: int = 0,
    base_snapshot=None,
) -> CrashCaseResult:
    """Simulate one fault plan and verify recovery from the wreckage.

    Pass a (typically ring-buffered) ``tracer`` plus ``trace_tail_cycles``
    to capture the last N cycles of trace events alongside the machine
    snapshot — the flight recorder for diagnosing an inconsistent case.

    ``base_snapshot`` (a :class:`~repro.snapshot.format.MachineSnapshot`)
    launches the case from a warm checkpoint instead of a cold machine:
    ``op_traces`` must then be the continuation traces and ``models``
    must be built over them (warm campaigns capture the prefix once and
    restore it per case, instead of re-simulating it ``crashes`` times).
    """
    from repro.sim.simulator import Simulator

    if config is None:
        config = fast_nvm_config(cores=max(1, len(op_traces)))
    tracker = DurabilityTracker(models)
    injector = FaultInjector(plan, tracker)
    if base_snapshot is not None:
        from repro.snapshot.state import restore_machine

        sim = restore_machine(
            base_snapshot, op_traces, tracer=tracer, fault_injector=injector
        )
    else:
        sim = Simulator(
            config, scheme, op_traces, fault_injector=injector, tracer=tracer
        )
    try:
        sim.run(max_cycles=max_cycles)
        crashed = False
        machine = MachineState.capture(
            sim, injector, tracker, "ran to completion",
            tracer=tracer, trace_tail_cycles=trace_tail_cycles,
        )
    except SimulationHalted as halt:
        crashed = True
        machine = MachineState.capture(
            sim, injector, tracker, halt.reason,
            tracer=tracer, trace_tail_cycles=trace_tail_cycles,
        )

    outcome = "consistent" if crashed else "completed"
    ks: List[int] = []
    detail = ""
    for thread in sorted(models):
        verdict = check_recovery(
            tracker.build_crash_image(thread), models[thread].candidates
        )
        ks.append(verdict.k)
        if not verdict.consistent:
            outcome = "inconsistent"
            if not detail:
                detail = f"thread {thread}: {verdict.error}"
    return CrashCaseResult(
        plan=plan,
        outcome=outcome,
        ks=tuple(ks),
        detail=detail,
        machine=machine,
    )
