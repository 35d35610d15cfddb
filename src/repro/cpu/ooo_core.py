"""Out-of-order core model.

The model is structural rather than functional: it tracks the resources
and ordering constraints that determine the paper's results — ROB and
load/store-queue occupancy, dispatch/retire widths, dependence edges
(pointer chasing and the LR edge between ``log-load`` and ``log-flush``),
in-order retirement, a post-retirement store buffer, PMEM fence
semantics, and the scheme adapter's logging rules.

One :meth:`OooCore.tick` models one cycle: retire → start executions →
drain the store buffer → dispatch.  The method returns True when the
core made any progress, which lets the simulator fast-forward the clock
to the next memory event when every core is stalled.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cpu.adapter import LoggingAdapter, NullAdapter
from repro.cpu.frontend import Frontend
from repro.cpu.store_buffer import StoreBuffer
from repro.isa.instructions import Instruction, Kind
from repro.isa.trace import InstructionTrace
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.config import CoreConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class State(enum.Enum):
    """Lifecycle of a dynamic instruction."""

    DISPATCHED = 0   # in the ROB, waiting on dependences
    EXECUTING = 1    # issued, waiting for completion
    COMPLETED = 2    # result ready, waiting to retire
    RETIRED = 3


# Module-level aliases for the per-instruction path: reading a member
# off an Enum class goes through the metaclass and costs several times
# a global lookup.
_DISPATCHED = State.DISPATCHED
_EXECUTING = State.EXECUTING
_COMPLETED = State.COMPLETED
_RETIRED = State.RETIRED
_ALU = Kind.ALU
_LOAD = Kind.LOAD
_STORE = Kind.STORE
_CLFLUSHOPT = Kind.CLFLUSHOPT
_PCOMMIT = Kind.PCOMMIT


class DynInstr:
    """Per-dynamic-instance state for one trace instruction."""

    __slots__ = (
        "instr",
        "seq",
        "state",
        "waiters",
        "lr",
        "logq_entry",
        "llt_hit",
        "log_acked",
    )

    def __init__(self, instr: Instruction, seq: int) -> None:
        self.instr = instr
        self.seq = seq
        self.state = _DISPATCHED
        self.waiters: List[Callable[[], None]] = []
        self.lr: Optional[int] = None           # Proteus log register index
        self.logq_entry = None                  # Proteus LogQ entry
        self.llt_hit = False                    # Proteus LLT filter hit
        self.log_acked = False                  # ATOM per-store log ack

    def completed(self) -> bool:
        return self.state is _COMPLETED or self.state is _RETIRED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<dyn #{self.seq} {self.instr.kind.value} {self.state.name}>"


class OooCore:
    """One core executing one thread's instruction trace."""

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        config: CoreConfig,
        trace: InstructionTrace,
        hierarchy: CacheHierarchy,
        memctrl: MemoryController,
        stats: Stats,
        adapter: Optional[LoggingAdapter] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.core_id = core_id
        self.engine = engine
        self.config = config
        self.hierarchy = hierarchy
        self.memctrl = memctrl
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.adapter = adapter if adapter is not None else NullAdapter()
        self.adapter.bind(self)

        self.frontend = Frontend(trace, stats, core_id, tracer=self.tracer)
        self.rob: List[DynInstr] = []
        self.store_buffer = StoreBuffer(
            config.store_buffer_drain_per_cycle, tracer=self.tracer, core_id=core_id
        )
        #: dispatched instructions not yet retired.  A dependence on a
        #: seq missing here is satisfied: its producer retired, so it
        #: completed.
        self.dyn_by_seq: Dict[int, DynInstr] = {}

        self.lq_used = 0
        self.sq_used = 0
        #: clwb/clflushopt issued to the memory system, awaiting ack
        self.pending_pmem = 0
        #: retired pcommits whose WPQ->NVM drain has not completed yet;
        #: pcommit itself retires immediately (it is asynchronous), but a
        #: later fence must wait for the drain (Intel ordering rules).
        self.pending_pcommits = 0
        #: outstanding demand loads (MSHR bound); loads beyond the limit
        #: queue here and issue as completions free slots.
        self._mshr_used = 0
        self._mshr_waiters: List[DynInstr] = []
        self._progress = False
        #: optional fault-injection observer with ``on_retire(core, dyn)``,
        #: called after the adapter's own retirement bookkeeping.
        self.retire_observer = None

    # -- public driver ----------------------------------------------------------

    def finished(self) -> bool:
        """True when the trace has fully executed and drained.

        Once true it stays true, and :meth:`tick` then changes nothing.
        """
        return (
            not self.rob
            and self.frontend.exhausted()
            and self.store_buffer.is_empty()
            and self.pending_pmem == 0
            and self.pending_pcommits == 0
            and self.adapter.quiesced()
        )

    def tick(self) -> bool:
        """Simulate one cycle; returns True when any progress was made."""
        self._progress = False
        self._retire()
        self._drain_store_buffer()
        self._dispatch()
        return self._progress

    # -- completion plumbing -------------------------------------------------------

    def _mark_completed(self, dyn: DynInstr) -> None:
        if dyn.state is _COMPLETED:
            return
        dyn.state = _COMPLETED
        self._progress = True
        if self.tracer.enabled:
            self.tracer.instant(
                "instr", "complete", tid=self.core_id, seq=dyn.seq,
                kind=dyn.instr.kind.value, txid=dyn.instr.txid,
            )
        waiters = dyn.waiters
        if waiters:
            dyn.waiters = []
            for waiter in waiters:
                waiter()

    def complete_after(self, dyn: DynInstr, delay: int) -> None:
        """Schedule completion of ``dyn`` after ``delay`` cycles."""
        self.engine.schedule(delay, partial(self._mark_completed, dyn))

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch(self) -> None:
        frontend = self.frontend
        # Read every cycle: a built trace may still grow (tests insert a
        # log-save into it after the simulator is constructed).
        instructions = frontend.trace.instructions
        end = len(instructions)
        pc = frontend.pc
        config = self.config
        width = config.fetch_width
        rob = self.rob
        adapter = self.adapter
        dyn_by_seq = self.dyn_by_seq
        cause: Optional[str] = None
        dispatched = 0
        while dispatched < width and pc < end:
            instr = instructions[pc]
            kind = instr.kind
            # Structural hazards, in attribution order.
            if len(rob) >= config.rob_entries:
                cause = "rob"
                break
            if kind.uses_load_queue and self.lq_used >= config.load_queue_entries:
                cause = "lq"
                break
            if kind.uses_store_queue and self.sq_used >= config.store_queue_entries:
                cause = "sq"
                break
            dyn = DynInstr(instr, pc)
            cause = adapter.dispatch_blocked(dyn)
            if cause is not None:
                break
            pc += 1
            frontend.pc = pc
            rob.append(dyn)
            dyn_by_seq[dyn.seq] = dyn
            if self.tracer.enabled:
                self.tracer.instant(
                    "instr", "dispatch", tid=self.core_id, seq=dyn.seq,
                    kind=kind.value, addr=instr.addr, txid=instr.txid,
                )
            if kind.uses_load_queue:
                self.lq_used += 1
            if kind.uses_store_queue:
                self.sq_used += 1
            # Execute now, or once the producer completes.  A producer
            # absent from dyn_by_seq has retired, so it has completed.
            dep = instr.dep
            producer = dyn_by_seq.get(dep) if dep >= 0 else None
            if producer is None or producer.state is _COMPLETED or producer.state is _RETIRED:
                self._start(dyn)
            else:
                producer.waiters.append(partial(self._start, dyn))
            dispatched += 1
        if dispatched:
            self._progress = True
            self.stats.add("dispatched_instructions", dispatched)
        elif pc < end:
            frontend.record_stall(cause)

    # -- execution -----------------------------------------------------------------------

    def _start(self, dyn: DynInstr) -> None:
        if dyn.state is not _DISPATCHED:
            return
        dyn.state = _EXECUTING
        self._progress = True
        if self.tracer.enabled:
            self.tracer.instant(
                "instr", "issue", tid=self.core_id, seq=dyn.seq,
                kind=dyn.instr.kind.value,
            )
        if self.adapter.start_execute(dyn):
            return
        kind = dyn.instr.kind
        if kind is _ALU:
            self.complete_after(dyn, max(1, dyn.instr.latency))
        elif kind is _LOAD:
            self._issue_load(dyn)
        elif kind is _STORE:
            # Address generation triggers the read-for-ownership prefetch
            # so the post-retirement cache write will hit.
            self.hierarchy.prefetch_for_store(self.core_id, dyn.instr.addr)
            self.complete_after(dyn, 1)
        else:
            # Stores complete at address generation; fences, tx marks and
            # flush instructions complete immediately — their semantics
            # are enforced at retirement and in the store buffer.
            self.complete_after(dyn, 1)

    def _issue_load(self, dyn: DynInstr) -> None:
        """Send a demand load to the cache, respecting the MSHR bound."""
        if self._mshr_used >= self.config.mshr_entries:
            self.stats.add("mshr.full")
            self._mshr_waiters.append(dyn)
            return
        self._mshr_used += 1
        self.hierarchy.access(
            self.core_id,
            dyn.instr.addr,
            is_write=False,
            on_complete=lambda: self._load_returned(dyn),
        )

    def _load_returned(self, dyn: DynInstr) -> None:
        self._mshr_used -= 1
        self._mark_completed(dyn)
        if self._mshr_waiters and self._mshr_used < self.config.mshr_entries:
            self._issue_load(self._mshr_waiters.pop(0))

    # -- retirement -------------------------------------------------------------------------

    def _fence_blocked(self, dyn: DynInstr) -> bool:
        """Retirement condition for sfence/mfence/pcommit/tx-end.

        pcommit itself only waits for the store-class backlog; its drain
        is posted at retirement and gates *later* fences instead.
        """
        if not self.store_buffer.is_empty() or self.pending_pmem > 0:
            return True
        if dyn.instr.kind is not _PCOMMIT and self.pending_pcommits > 0:
            return True
        return False

    def _pcommit_done(self) -> None:
        self.pending_pcommits -= 1
        # Progress resumes at the next tick; the retire loop re-checks.

    def _retire(self) -> None:
        rob = self.rob
        width = self.config.retire_width
        adapter = self.adapter
        retired = 0
        while retired < width and rob:
            dyn = rob[0]
            if dyn.state is not _COMPLETED:
                break
            kind = dyn.instr.kind
            if kind.is_fence and self._fence_blocked(dyn):
                self.stats.add("retire_blocked.fence")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "stall", "retire-fence", tid=self.core_id, seq=dyn.seq,
                        kind=kind.value,
                    )
                break
            if adapter.retire_blocked(dyn):
                self.stats.add("retire_blocked.adapter")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "stall", "retire-adapter", tid=self.core_id, seq=dyn.seq,
                        kind=kind.value,
                    )
                break
            rob.pop(0)
            dyn.state = _RETIRED
            if kind.uses_load_queue:
                self.lq_used -= 1
            if kind.uses_store_queue:
                self.store_buffer.push(dyn)  # SQ slot freed when drained
            # Completed, so its waiters have already been started.
            del self.dyn_by_seq[dyn.seq]
            if kind is _PCOMMIT:
                self.pending_pcommits += 1
                self.memctrl.notify_when_persistent(self._pcommit_done)
            adapter.on_retire(dyn)
            if self.retire_observer is not None:
                self.retire_observer.on_retire(self.core_id, dyn)
            self.stats.add("retired_instructions")
            if self.tracer.enabled:
                self.tracer.instant(
                    "instr", "retire", tid=self.core_id, seq=dyn.seq,
                    kind=kind.value, txid=dyn.instr.txid,
                )
            retired += 1
        if retired:
            self._progress = True

    # -- store buffer drain ------------------------------------------------------------------

    def _drain_store_buffer(self) -> None:
        for _ in range(self.store_buffer.drain_per_cycle):
            head = self.store_buffer.head()
            if head is None:
                return
            kind = head.instr.kind
            if kind is _STORE and self.adapter.store_release_blocked(
                head.instr.addr, head.seq
            ):
                self.stats.add("store_release_blocked")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "stall", "store-release", tid=self.core_id,
                        seq=head.seq, addr=head.instr.addr,
                    )
                return
            dyn = self.store_buffer.pop_head()
            self._progress = True
            if kind is _STORE:
                self.hierarchy.access(
                    self.core_id,
                    dyn.instr.addr,
                    is_write=True,
                    on_complete=self._store_written,
                )
            else:  # CLWB / CLFLUSHOPT
                self.pending_pmem += 1
                self.hierarchy.flush_line(
                    self.core_id,
                    dyn.instr.addr,
                    invalidate=(kind is _CLFLUSHOPT),
                    thread_id=self.core_id,
                    on_durable=self._flush_acked,
                )

    def _store_written(self) -> None:
        self.store_buffer.finished()
        self.sq_used -= 1

    def _flush_acked(self) -> None:
        self.store_buffer.finished()
        self.sq_used -= 1
        self.pending_pmem -= 1
