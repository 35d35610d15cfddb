"""Top-level simulator.

Builds the machine (cores + caches + memory controller) for one logging
scheme, lowers the per-thread workload traces, and runs the cycle loop to
completion.  The loop fast-forwards the clock to the next memory event,
or to the cycle budget if that comes first, whenever every core is
stalled, so long NVM latencies cost nothing to simulate and a budget
error reports the machine at its budget.

A core that only waits on a think chain is parked (``OooCore.park``):
it leaves the tick list until its window ends.  Its ROB holds one run
of links, or a chain's head run, completed entries and the next chain's
run; the loop treats both alike, by the cycle ``park`` returns.  While
a parked core and a live core coexist the loop steps one cycle at a
time, as the parked core's own schedule would make it; once every live
core is parked it jumps to the next event, the earliest window end or
the cycle budget.

A core whose tick leaves ``waiting_on_fence`` set is held: it leaves the
tick list until an event in the loop's fire step clears the flag, since
until then each tick would only count ``retire_blocked.fence`` and a
``stall.rob``.  The loop counts its iterations, and on release the core
adds those counters once per iteration it sat out
(``OooCore.charge_fence_wait``), then rejoins the tick list in core
order.  A held core counts as live when the loop decides whether to step
or jump while cores are parked, and whether it may exit.

A halt, a budget error or a deadlock first rebuilds every parked core
(``OooCore.unpark``) and charges every held core, so the state it leaves
is the one ticking would have left.  No parking or holding happens under
a live tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.atom import AtomAdapter
from repro.core.codegen import CodeGenerator, ThreadLayout
from repro.core.log_area import LogArea
from repro.core.proteus import ProteusAdapter
from repro.core.schemes import Scheme
from repro.cpu.adapter import NullAdapter
from repro.cpu.ooo_core import OooCore
from repro.isa.trace import InstructionTrace, OpTrace
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.obs.sampler import OccupancySampler
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.config import SystemConfig, fast_nvm_config
from repro.sim.engine import Engine, SimulationHalted
from repro.sim.stats import Stats
from repro.workloads.heap import ThreadAddressSpace

#: unpark cycle while no core is parked
_NEVER = 1 << 62


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    scheme: Scheme
    config: SystemConfig
    stats: Stats
    cycles: int

    @property
    def ipc(self) -> float:
        return self.stats.instructions() / self.cycles if self.cycles else 0.0

    @property
    def nvm_writes(self) -> int:
        return self.stats.nvm_writes()

    @property
    def frontend_stalls(self) -> int:
        return self.stats.frontend_stalls()

    def speedup_over(self, baseline: "SimResult") -> float:
        """Speedup of this run relative to ``baseline`` (cycles ratio)."""
        if self.cycles == 0:
            raise ValueError("run completed in zero cycles")
        return baseline.cycles / self.cycles


class Simulator:
    """One machine instance executing lowered traces under one scheme."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        op_traces: Sequence[OpTrace],
        fault_injector=None,
        tracer: Optional[Tracer] = None,
        warm: bool = True,
        thread_state: Optional[Mapping[int, Mapping[str, int]]] = None,
    ) -> None:
        """Build the machine and lower the given traces.

        ``warm=False`` skips :meth:`warm_thread` (each thread's
        software-log area and per-trace ``warm_lines``) — the snapshot
        restore path imposes exact cache contents instead.
        ``thread_state`` optionally seeds per-thread cursors before
        lowering, as
        ``{thread_id: {"sw_log_cursor": ..., "log_area_cur": ...}}``;
        both keys are optional.  The software-log cursor must be imposed
        *before* lowering because lowering consumes slots.
        """
        if len(op_traces) > config.cores:
            raise ValueError(
                f"{len(op_traces)} traces but only {config.cores} cores"
            )
        self.config = config
        self.scheme = scheme
        self.engine = Engine()
        self.stats = Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # The shared NULL_TRACER is never rebound (it is one singleton
            # across simulations); a live tracer gets this engine's clock.
            self.tracer.bind_clock(lambda: self.engine.cycle)
        self.memctrl = MemoryController(
            self.engine, config.memory, self.stats, tracer=self.tracer
        )
        if scheme.uses_lpq:
            self.memctrl.attach_lpq(
                config.proteus.lpq_entries,
                log_write_removal=(
                    scheme.log_write_removal and config.proteus.log_write_removal
                ),
            )
        self.hierarchy = CacheHierarchy(self.engine, config, self.memctrl, self.stats)
        self.cores: List[OooCore] = []
        self.traces: List[InstructionTrace] = []
        #: per-thread code generators and hardware log areas; persistent
        #: across segments so circular cursors continue instead of
        #: resetting (the snapshot/segmented-run machinery relies on it).
        self.codegens: Dict[int, CodeGenerator] = {}
        self.log_areas: Dict[int, LogArea] = {}
        self._thread_state: Dict[int, Mapping[str, int]] = (
            dict(thread_state) if thread_state else {}
        )
        for op_trace in op_traces:
            self._build_core(op_trace, warm=warm)
        #: cycle at which every core finished (before the final controller
        #: drain); None until the run loop completes.
        self.core_finish_cycle: Optional[int] = None
        self.sampler: Optional[OccupancySampler] = None
        if self.tracer.enabled and self.tracer.sample_interval:
            self.sampler = OccupancySampler(
                self.tracer, self, self.tracer.sample_interval
            )
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach(self)

    def _build_core(self, op_trace: OpTrace, warm: bool = True) -> None:
        thread_id = op_trace.thread_id
        space = ThreadAddressSpace(thread_id)
        layout = space.layout()
        generator = self.codegens.get(thread_id)
        if generator is None:
            generator = CodeGenerator(self.scheme, layout, thread_id)
            seeded = self._thread_state.get(thread_id)
            if seeded is not None and seeded.get("sw_log_cursor") is not None:
                generator.sw_log_cursor = int(seeded["sw_log_cursor"])
            self.codegens[thread_id] = generator
        trace = generator.lower_trace(op_trace)
        self.traces.append(trace)

        if self.scheme.is_software:
            self.memctrl.register_log_region(layout.sw_log_base, layout.sw_log_size)
            self.memctrl.register_log_region(layout.logflag_addr, 64)

        adapter = None
        if self.scheme.is_sshl or self.scheme.is_hardware:
            log_area = self.log_areas.get(thread_id)
            if log_area is None:
                log_area = LogArea(layout.hw_log_base, layout.hw_log_size, thread_id)
                seeded = self._thread_state.get(thread_id)
                if seeded is not None and seeded.get("log_area_cur") is not None:
                    log_area.set_cursor(int(seeded["log_area_cur"]))
                self.log_areas[thread_id] = log_area
            if self.scheme.is_sshl:
                adapter = ProteusAdapter(
                    self.engine,
                    self.config.proteus,
                    self.memctrl,
                    log_area,
                    self.stats,
                    thread_id,
                )
            else:
                adapter = AtomAdapter(
                    self.engine,
                    self.config.atom,
                    self.memctrl,
                    log_area,
                    self.stats,
                    thread_id,
                )
        if adapter is not None:
            adapter.tracer = self.tracer
        if warm:
            self.warm_thread(thread_id, layout, op_trace.warm_lines)

        core = OooCore(
            core_id=thread_id,
            engine=self.engine,
            config=self.config.core,
            trace=trace,
            hierarchy=self.hierarchy,
            memctrl=self.memctrl,
            stats=self.stats,
            adapter=adapter if adapter is not None else NullAdapter(),
            tracer=self.tracer,
        )
        self.cores.append(core)

    def warm_thread(
        self, thread_id: int, layout: ThreadLayout, warm_lines: Iterable[int]
    ) -> None:
        """Warm one thread's cache footprint as the init fast-forward
        leaves it: under a software scheme its circular log and logFlag
        line, then ``warm_lines``, the lines initialization touched."""
        if self.scheme.is_software:
            # The circular software log wraps every few thousand
            # transactions, so after the init fast-forward it is cache
            # resident like the rest of the working set.
            base = layout.sw_log_base
            self.hierarchy.warm(thread_id, range(base, base + layout.sw_log_size, 64))
            self.hierarchy.warm(thread_id, (layout.logflag_addr,))
        self.hierarchy.warm(thread_id, warm_lines)

    # -- segmented execution ---------------------------------------------------------

    def quiescent(self) -> bool:
        """True when the machine is at a drained quiescent point.

        Every core finished, no events pending, nothing halted, and the
        memory controller fully drained.  This is the only machine state
        the snapshot subsystem can serialize exactly.
        """
        return (
            all(core.finished() for core in self.cores)
            and self.engine.pending_events() == 0
            and not self.engine.halted
            and self.memctrl.wpq.is_empty()
            and not self.memctrl.drain_pending()
            and self.memctrl.device.is_idle()
        )

    def load_segment(self, op_traces: Sequence[OpTrace]) -> None:
        """Load another batch of traces into this (finished) machine.

        The caches, queues, NVM bank state, stats, clock, log cursors and
        code-generator cursors all carry over, so running the new segment
        continues the previous run exactly.  Requires that :meth:`run`
        completed and the machine is quiescent.
        """
        if self.core_finish_cycle is None:
            raise RuntimeError("load_segment requires a completed run() first")
        if not self.quiescent():
            raise RuntimeError("cannot load a segment into a non-quiescent machine")
        if len(op_traces) > self.config.cores:
            raise ValueError(
                f"{len(op_traces)} traces but only {self.config.cores} cores"
            )
        self.cores = []
        self.traces = []
        for op_trace in op_traces:
            self._build_core(op_trace, warm=False)
        self.core_finish_cycle = None
        if self.fault_injector is not None:
            self.fault_injector.attach(self)

    # -- the cycle loop -------------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000) -> SimResult:
        """Run every core's trace to completion."""
        engine = self.engine
        sampler = self.sampler
        # A finished core stays finished and ticking it changes nothing,
        # so each iteration checks and ticks only the cores still live.
        live = list(self.cores)
        # Cores parked in a think-chain window -> the cycle on which each
        # is unparked, and the earliest of those cycles.
        parked: Dict[OooCore, int] = {}
        resume_at = _NEVER
        # Cores held at a fence -> the iteration whose tick held them.
        # Only an event clears ``waiting_on_fence``, and until one does a
        # tick only counts the stalls, so a held core sits out the ticks
        # and is charged per iteration on release.  A live tracer must
        # see every tick's stall instants, so it holds no core.
        held: Dict[OooCore, int] = {}
        holding = not self.tracer.enabled
        iteration = 0
        while True:
            if engine.halted:
                self._settle(parked, held, iteration)
                raise SimulationHalted(engine.cycle, engine.halt_reason)
            if engine.cycle >= resume_at:
                for core, at in list(parked.items()):
                    if at <= engine.cycle:
                        del parked[core]
                        core.unpark()
                live = [
                    core for core in self.cores if core not in parked and core not in held
                ]
                resume_at = min(parked.values(), default=_NEVER)
            if sampler is not None:
                sampler.maybe_sample()
            live = [core for core in live if not core.finished()]
            if not live and not parked and not held:
                break
            if engine.cycle >= max_cycles:
                self._settle(parked, held, iteration)
                raise RuntimeError(
                    f"simulation exceeded its budget of {max_cycles} cycles "
                    f"at cycle {engine.cycle} "
                    f"(scheme={self.scheme}, {self._progress_report()})"
                )
            fired = engine.fire_due_events()
            if engine.halted:
                self._settle(parked, held, iteration, fired=True)
                raise SimulationHalted(engine.cycle, engine.halt_reason)
            if fired and held:
                released = [core for core in held if not core.waiting_on_fence]
                if released:
                    for core in released:
                        core.charge_fence_wait(iteration - held.pop(core))
                    # Released cores tick again, in core order.
                    live = [core for core in self.cores if core in live or core in released]
            iteration += 1
            progress = False
            leaving = False
            for core in live:
                if core.tick():
                    progress = True
                elif core.waiting_on_head:
                    until = core.park()
                    if until is not None:
                        parked[core] = until
                        resume_at = min(resume_at, until)
                        leaving = True
                elif core.waiting_on_fence and holding:
                    held[core] = iteration
                    leaving = True
            if leaving:
                live = [core for core in live if core not in parked and core not in held]
            if parked:
                # A parked core's own schedule visits every cycle of its
                # window, so the loop steps while other cores are live; a
                # held core counts as live.
                if live or held:
                    engine.advance(1)
                    continue
                target = min(resume_at, max_cycles)
                next_cycle = engine.next_event_cycle()
                if next_cycle is not None and next_cycle < target:
                    target = next_cycle
                engine.fast_forward(target)
                continue
            if progress or fired:
                engine.advance(1)
                continue
            next_cycle = engine.next_event_cycle()
            if next_cycle is None:
                self._settle(parked, held, iteration)
                raise RuntimeError(
                    f"deadlock: no core can progress and no events are "
                    f"pending (scheme={self.scheme}, {self._progress_report()})"
                )
            engine.fast_forward(min(next_cycle, max_cycles))
        self.core_finish_cycle = engine.cycle
        self._final_drain()
        self.stats.counters["cycles"] = engine.cycle
        return SimResult(
            scheme=self.scheme,
            config=self.config,
            stats=self.stats,
            cycles=engine.cycle,
        )

    @staticmethod
    def _settle(
        parked: Dict[OooCore, int],
        held: Dict[OooCore, int],
        iteration: int,
        fired: bool = False,
    ) -> None:
        """Before a halt or an error reports the machine, rebuild every
        parked core at the current cycle (see :meth:`OooCore.unpark`)
        and charge every held core the iterations it sat out."""
        for core in parked:
            core.unpark(fired)
        parked.clear()
        for core, held_at in held.items():
            core.charge_fence_wait(iteration - held_at)
        held.clear()

    def _final_drain(self) -> None:
        """Flush remaining controller-side writes so NVM write counts are
        complete.

        The WPQ always drains.  A Proteus+NoLWR LPQ also drains (those
        entries would have been written eventually); a Proteus LPQ does
        not — its surviving entries belong to committed transactions and
        would have been flash cleared, which is the point of log write
        removal.
        """
        if self.memctrl.lpq is not None and not self.memctrl.log_write_removal:
            self.memctrl.flush_logs()
        while True:
            # Pump before checking for work: a queue that idled with
            # entries after the device went quiet has no event scheduled,
            # so only a pump can restart it.  (The old loop pumped only
            # *after* advancing to an event and broke as soon as none
            # were pending — stranding exactly those writes.)
            self.memctrl.pump()
            if not (self.memctrl.drain_pending() or self.engine.pending_events()):
                break
            if not self.engine.advance_to_next_event():
                if self.memctrl.drain_pending():
                    raise RuntimeError(
                        f"final drain stalled with writes pending and no "
                        f"events (scheme={self.scheme})"
                    )
                break

    def _progress_report(self) -> str:
        parts = []
        for core in self.cores:
            parts.append(
                f"core{core.core_id}: pc={core.pc}/{len(core.trace)} "
                f"rob={core.rob_used} sb={core.store_buffer.occupancy()}"
                f"+{core.store_buffer.in_flight()}inflight pmem={core.pending_pmem}"
            )
        return "; ".join(parts)


def run_trace(
    op_traces: Sequence[OpTrace],
    scheme: Scheme,
    config: Optional[SystemConfig] = None,
    max_cycles: int = 500_000_000,
    tracer: Optional[Tracer] = None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run it."""
    if config is None:
        config = fast_nvm_config(cores=max(1, len(op_traces)))
    return Simulator(config, scheme, op_traces, tracer=tracer).run(
        max_cycles=max_cycles
    )


def run_workload(
    workload_cls,
    scheme: Scheme,
    config: Optional[SystemConfig] = None,
    threads: int = 1,
    seed: int = 1,
    max_cycles: int = 500_000_000,
    tracer: Optional[Tracer] = None,
    **workload_kwargs,
) -> SimResult:
    """Generate per-thread traces for a workload class and simulate them.

    Traces depend only on (workload, threads, seed, sizes), never on the
    scheme, so scheme comparisons run identical work.
    """
    from repro.workloads.base import generate_traces

    traces = generate_traces(workload_cls, threads=threads, seed=seed, **workload_kwargs)
    if config is None:
        config = fast_nvm_config(cores=threads)
    return run_trace(traces, scheme, config, max_cycles=max_cycles, tracer=tracer)
