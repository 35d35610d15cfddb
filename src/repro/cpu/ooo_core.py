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
to the next memory event when every core is stalled.  A core whose ROB
is full behind an executing head, with nothing left to drain, can only
count a ``stall.rob``, so its tick does just that until the next
completion.

A core whose ROB holds nothing but a think chain's links can do even
less: each completion cycle retires one link and dispatches the next,
and every other cycle counts one ``stall.rob``.  :meth:`OooCore.park`
takes such a core off the simulator's tick list, and its head
completion out of the event heap, until the chain's links have all
dispatched; :meth:`OooCore.unpark` then rebuilds the ROB, ``dyn_by_seq``,
pc, ``waiting_on_head``, the pending completion and the counters for
the cycle at hand, at the window's end or when a halt or an error
stops the run inside it.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Dict, List, Optional

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
        #: dispatched dependents, started when this instruction completes
        self.waiters: List[DynInstr] = []
        self.lr: Optional[int] = None           # Proteus log register index
        self.logq_entry = None                  # Proteus LogQ entry
        self.llt_hit = False                    # Proteus LLT filter hit
        self.log_acked = False                  # ATOM per-store log ack

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
        #: set when the ROB is full, its head has not completed and the
        #: store buffer holds nothing to drain: until an instruction
        #: completes, a tick can only count a ROB stall.
        self.waiting_on_head = False
        #: optional fault-injection observer with ``on_retire(core, dyn)``,
        #: called after the adapter's own retirement bookkeeping for
        #: every retired instruction that is not an ALU.
        self.retire_observer = None
        #: cycle of the tick after which the core parked in a think-chain
        #: window (see :meth:`park`), else None.
        self._parked_at: Optional[int] = None

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
        if self.waiting_on_head:
            # Nothing retires, drains or dispatches before the head
            # completes, and every completion clears the flag.
            self.frontend.record_stall("rob")
            return False
        self._progress = False
        self._retire()
        self._drain_store_buffer()
        self._dispatch()
        return self._progress

    # -- think-chain window ----------------------------------------------------------

    def park(self) -> Optional[int]:
        """Leave the tick list for the steady part of a think chain.

        Call right after a tick that only counted a ``stall.rob``, so the
        ROB is full and an instruction is left to dispatch.  The core
        parks when its ROB holds nothing but latency-2, ``dep=1``
        ALU links of one shared record, its next instruction is that
        link too, and its head's completion is due on the next cycle.
        Until the run of links has dispatched, each completion cycle then
        retires one link and dispatches one, and every other cycle counts
        one ``stall.rob``; nothing else can reach the core's tick, so the
        core skips those ticks and :meth:`unpark` rebuilds their effect.
        The head's completion event leaves the heap.

        Returns the cycle after the window's last completion, on which
        the core must be unparked and tick again, or None when the core
        cannot park.
        """
        if self.tracer.enabled:
            return None
        instructions = self.frontend.trace.instructions
        pc = self.frontend.pc
        rob = self.rob
        link = instructions[pc]
        head = rob[0]
        if head.instr is not link or link.kind is not _ALU:
            return None
        if link.dep != 1 or link.latency != 2:
            return None
        counters = self.stats.counters
        # Bulk adds to existing counters cannot change their order.  A
        # dep=1 head implies all three (its producer retired), but the
        # window's exactness rests on them, so check.
        if not (
            "stall.rob" in counters
            and "retired_instructions" in counters
            and "dispatched_instructions" in counters
        ):
            return None
        if any(dyn.instr is not link for dyn in rob):
            return None
        cycle = self.engine.cycle
        if not self.engine.cancel(
            cycle + 1,
            lambda callback: isinstance(callback, partial) and callback.args == (head,),
        ):
            return None
        end = pc + 1
        while end < len(instructions) and instructions[end] is link:
            end += 1
        self._parked_at = cycle
        # The last link dispatches on the last completion, one cycle earlier.
        return cycle + 2 * (end - pc)

    def unpark(self, fired: bool = False) -> None:
        """Rebuild a parked core's state at the current cycle, exactly as
        ticking it through the window would have left it.

        The current cycle is at most the one :meth:`park` returned.
        ``fired=False`` gives the state before this cycle's events fire
        (every earlier cycle's tick done); ``fired=True`` the state after
        they fired, before this cycle's ticks.  The window's completion
        cycles are ``park + 1 + 2k``: on each one the head completes and
        starts its waiter, and the tick retires the head and dispatches
        the next link.  Every other tick counts one ``stall.rob``.  The
        rebuilt head completion gets a fresh sequence number; its order
        among same-cycle events cannot be observed, because only ALU
        links wait on an ALU.
        """
        park_cycle = self._parked_at
        self._parked_at = None
        cycle = self.engine.cycle
        # Completions whose tick has run, and completions that fired.
        ticked = (cycle - park_cycle) // 2
        completed = ticked
        if fired and cycle == park_cycle + 1 + 2 * ticked:
            completed += 1

        rob = self.rob
        frontend = self.frontend
        dyn_by_seq = self.dyn_by_seq
        pc = frontend.pc
        first = rob[0].seq + ticked
        for dyn in rob[:ticked]:
            del dyn_by_seq[dyn.seq]
        del rob[:ticked]
        instructions = frontend.trace.instructions
        for seq in range(max(pc, first), pc + ticked):
            dyn = DynInstr(instructions[seq], seq)
            rob.append(dyn)
            dyn_by_seq[seq] = dyn
        frontend.pc = pc + ticked

        executing = completed - ticked
        last = len(rob) - 1
        for index, dyn in enumerate(rob):
            if index < executing:
                dyn.state = _COMPLETED
            elif index == executing:
                dyn.state = _EXECUTING
            else:
                dyn.state = _DISPATCHED
            dyn.waiters = [rob[index + 1]] if executing <= index < last else []
        if executing <= last:
            self.complete_after(rob[executing], park_cycle + 1 + 2 * completed - cycle)

        if executing:
            # The head completed this cycle and no tick has run since.
            self.waiting_on_head = False
            self._progress = True
        elif ticked and cycle == park_cycle + 2 * ticked:
            # The last tick retired and dispatched: it stopped on the full
            # ROB unless it ran out of trace or of dispatch width.
            self.waiting_on_head = (
                frontend.pc < len(instructions) and self.config.fetch_width > 1
            )
        else:
            self.waiting_on_head = True

        stats = self.stats
        if ticked:
            stats.add("retired_instructions", ticked)
            stats.add("dispatched_instructions", ticked)
        stalls = cycle - 1 - park_cycle - ticked
        if stalls:
            stats.add("stall.rob", stalls)

    # -- completion plumbing -------------------------------------------------------

    def _mark_completed(self, dyn: DynInstr) -> None:
        self.waiting_on_head = False
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
                self._start(waiter)

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
            # No adapter acts on an ALU instruction.
            if kind is not _ALU:
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
            # dep == 0 must not look up dyn.seq: that is this dyn itself.
            dep = instr.dep
            producer = dyn_by_seq.get(dyn.seq - dep) if dep else None
            if producer is None or producer.state is _COMPLETED or producer.state is _RETIRED:
                self._start(dyn)
            else:
                producer.waiters.append(dyn)
            dispatched += 1
        if dispatched:
            self._progress = True
            self.stats.add("dispatched_instructions", dispatched)
        elif pc < end:
            frontend.record_stall(cause)
        if (
            cause == "rob"
            and rob[0].state is not _COMPLETED
            and self.store_buffer.head() is None
        ):
            self.waiting_on_head = True

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
        kind = dyn.instr.kind
        if kind is _ALU:
            self.complete_after(dyn, max(1, dyn.instr.latency))
            return
        if self.adapter.start_execute(dyn):
            return
        if kind is _LOAD:
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
            if kind is not _ALU and adapter.retire_blocked(dyn):
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
            if kind is not _ALU:
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
