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
to the next memory event when every core is stalled.  Two stalls only
count until an event ends them.  A ROB full behind an executing head,
with nothing left to drain, counts a ``stall.rob`` until the next
completion, so while ``waiting_on_head`` is set the tick counts just
that.  A completed fence held at the head by the store backlog counts a
``retire_blocked.fence`` (and a ``stall.rob`` while the trace has
instructions left) until a store or flush is acknowledged or a pcommit
drains (``waiting_on_fence``).  An untraced loop holds such a core out
of its tick list and charges the ticks in bulk
(:meth:`OooCore.charge_fence_wait`); a traced run ticks it in full,
since its tracer needs each tick's ``stall`` instants.

Most of a lowered stream is think-chain links: latency-2 ALU
instructions, each ``dep=1`` on the one before, sharing one record.
Consecutive in-flight links of one record are one ROB entry, a
:class:`LinkRun`, instead of one :class:`DynInstr` each; ``rob_used``
counts instructions, not entries.  A live tracer keeps every link a
:class:`DynInstr`, so its per-instruction trace instants are emitted.

A core whose ROB holds nothing but one run of links can do even less:
each completion cycle retires one link and dispatches the next, and
every other cycle counts one ``stall.rob``.  So can a core whose ROB
holds a chain's head run, entries that have all completed, and the next
chain's run, whose links complete on the head's cycles: each completion
cycle retires one head link and dispatches one tail link.
:meth:`OooCore.park` takes such a core off the simulator's tick list,
and the runs' completions out of the event heap, until the tail's links
have all dispatched (or the head is down to its last link);
:meth:`OooCore.unpark` then rebuilds the runs, pc, ``waiting_on_head``,
the pending completions and the counters for the cycle at hand, at the
window's end or when a halt or an error stops the run inside it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cpu.adapter import LoggingAdapter, NullAdapter
from repro.cpu.store_buffer import StoreBuffer
from repro.isa.instructions import Instruction, Kind
from repro.isa.trace import InstructionTrace
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.obs.spans import ATTRIBUTION_CLASSES, classify_stall
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

#: a trace index past every instruction
_NEVER = 1 << 62

#: stall cause -> its ``Stats`` counter and the index of its class in
#: ``ATTRIBUTION_CLASSES``; a dispatch cause joins on first use
_STALLS: Dict[str, Tuple[str, int]] = {
    cause: (counter, ATTRIBUTION_CLASSES.index(classify_stall(cause)))
    for cause, counter in (
        ("retire-fence", "retire_blocked.fence"),
        ("retire-adapter", "retire_blocked.adapter"),
        ("store-release", "store_release_blocked"),
    )
}


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
        self.waiters: List[RobEntry] = []
        self.lr: Optional[int] = None           # Proteus log register index
        self.logq_entry = None                  # Proteus LogQ entry
        self.llt_hit = False                    # Proteus LLT filter hit
        self.log_acked = False                  # ATOM per-store log ack

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<dyn #{self.seq} {self.instr.kind.value} {self.state.name}>"


class LinkRun:
    """Consecutive in-flight links of one record, as one ROB entry.

    A link is an ALU instruction with ``dep=1``, so each link of a run
    waits on the one before it and at most one executes.  The run holds
    links ``seq`` to ``seq + count - 1``: the first ``done`` have
    completed, the next one executes while ``running``, and the rest
    wait on their predecessor.  ``callback``, built once per run,
    completes the executing link and starts the next, so each link's
    completion is still one event.  The run's first link waits in its
    producer's ``waiters`` like a :class:`DynInstr`, and ``instr.dep``
    is 1 for it too.
    """

    __slots__ = ("instr", "seq", "count", "done", "running", "delay", "waiters", "callback")

    def __init__(
        self, instr: Instruction, seq: int, on_complete: Callable[["LinkRun"], None]
    ) -> None:
        self.instr = instr
        self.seq = seq
        self.count = 1
        self.done = 0
        self.running = False
        self.delay = max(1, instr.latency)
        #: dispatched dependents of its links (or of its last link, a
        #: later run), each started once link ``seq - instr.dep`` of it
        #: completes
        self.waiters: List[RobEntry] = []
        self.callback = partial(on_complete, self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<run #{self.seq}+{self.count} done={self.done}>"


RobEntry = Union[DynInstr, LinkRun]


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

        self.trace = trace
        self.pc = 0
        #: in program order; the seqs it holds are consecutive
        self.rob: List[RobEntry] = []
        #: instructions in the ROB, a run counting each of its links
        self.rob_used = 0
        self.store_buffer = StoreBuffer(
            config.store_buffer_drain_per_cycle, tracer=self.tracer, core_id=core_id
        )
        #: the ROB's :class:`DynInstr` entries by seq.  A seq missing
        #: here is a link of a run, or older than the ROB: retired, so
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
        #: set when the head is a completed fence held by the store
        #: backlog, nothing waits to drain and dispatch stopped on a full
        #: ROB or at the trace's end: until a store or flush is
        #: acknowledged or a pcommit drains, a tick can only count the
        #: fence (and a ROB stall).
        self.waiting_on_fence = False
        #: optional fault-injection observer with ``on_retire(core, dyn)``,
        #: called after the adapter's own retirement bookkeeping for
        #: every retired instruction that is not an ALU.
        self.retire_observer = None
        #: cycle of the tick after which the core parked in a think-chain
        #: window (see :meth:`park`), else None.
        self._parked_at: Optional[int] = None
        #: stalled cycles inside transactions, per attribution class
        self.blocked = [0] * len(ATTRIBUTION_CLASSES)
        #: the next transaction's first trace index, the newest open one's
        #: last (_NEVER: none is open), and stalls owed to an opening tick
        self._opens_at = trace.transactions[0][0] if trace.transactions else _NEVER
        self._closes_at = _NEVER
        self._owed: List[Tuple[int, int]] = []

    # -- public driver ----------------------------------------------------------

    def finished(self) -> bool:
        """True when the trace has fully executed and drained.

        Once true it stays true, and :meth:`tick` then changes nothing.
        """
        return (
            not self.rob
            and self.exhausted()
            and self.store_buffer.is_empty()
            and self.pending_pmem == 0
            and self.pending_pcommits == 0
            and self.adapter.quiesced()
        )

    def exhausted(self) -> bool:
        """True when the whole trace, which may still grow, has dispatched."""
        return self.pc >= len(self.trace.instructions)

    def stall(self, cause: str, dyn: Optional[DynInstr] = None, cycles: int = 1) -> None:
        """Count ``cycles`` stalled cycles against ``cause``.

        Figure 7's front-end stalls are one ``stall.<cause>`` per tick that
        dispatched nothing while instructions were left, against the first
        exhausted resource.  A tick also counts a ``retire_blocked.*`` when
        retirement stopped at ``dyn``, or a ``store_release_blocked`` when the
        store buffer's head ``dyn`` waits on its log flush.  Parked and held
        cores are charged at once; cycles the loop jumps over count nothing
        yet (ROADMAP.md).  A live tracer gets a ``stall`` instant, and a cycle
        inside a transaction is charged to the cause's class in :attr:`blocked`.
        """
        if cause not in _STALLS:
            _STALLS[cause] = (f"stall.{cause}", ATTRIBUTION_CLASSES.index(classify_stall(cause)))
        counter, cls = _STALLS[cause]
        self.stats.counters[counter] += cycles
        if self.tracer.enabled:
            if dyn is None:
                self.tracer.instant("stall", cause, tid=self.core_id, pc=self.pc)
            elif cause == "store-release":
                self.tracer.instant("stall", cause, tid=self.core_id, seq=dyn.seq, addr=dyn.instr.addr)
            else:
                self.tracer.instant(
                    "stall", cause, tid=self.core_id, seq=dyn.seq, kind=dyn.instr.kind.value
                )
        if self._closes_at != _NEVER:
            self.blocked[cls] += cycles
        elif dyn is not None:  # this cycle's dispatch may yet open one
            self._owed.append((self.engine.cycle, cls))

    def _cross_bounds(self) -> None:
        """Move the bounds after a tick that dispatched the next
        transaction's first instruction or retired the open one's last.

        A transaction is open from the tick that dispatches its first
        instruction through the tick that retires its last, like its span
        in :func:`repro.obs.spans.build_tx_spans`, so the retire and
        release stalls owed before an opening tick's dispatch count too.
        """
        bounds = self.trace.transactions
        while self.pc > self._opens_at:
            if self._closes_at == _NEVER:
                for cycle, cls in self._owed:
                    if cycle == self.engine.cycle:
                        self.blocked[cls] += 1
            self._owed.clear()
            index = bisect_left(bounds, (self._opens_at,)) + 1
            self._closes_at = bounds[index - 1][1]
            self._opens_at = bounds[index][0] if index < len(bounds) else _NEVER
        if self.pc - self.rob_used > self._closes_at:
            self._closes_at = _NEVER

    def tick(self) -> bool:
        """Simulate one cycle; returns True when any progress was made."""
        if self.waiting_on_head:
            # Nothing retires, drains or dispatches before the head
            # completes, and every completion clears the flag.
            self.stall("rob")
            return False
        self._progress = False
        fence_held = self._retire()
        self._drain_store_buffer()
        if (
            self._dispatch()
            and fence_held
            and not self._progress
            and self.store_buffer.head() is None
        ):
            self.waiting_on_fence = True
        return self._progress

    def expanded_rob(self) -> List[Tuple[int, State, List[int]]]:
        """The ROB one instruction at a time, each run expanded into its
        links: ``(seq, state, seqs of the dependents waiting on it)``,
        as the per-instruction model holds them (a waiting run counts
        as its first link)."""
        slots = []
        for entry in self.rob:
            if entry.__class__ is not LinkRun:
                slots.append((entry.seq, entry.state, [w.seq for w in entry.waiters]))
                continue
            first, count, done = entry.seq, entry.count, entry.done
            for index in range(count):
                seq = first + index
                if index < done:
                    state = _COMPLETED
                elif index == done and entry.running:
                    state = _EXECUTING
                else:
                    state = _DISPATCHED
                # An incomplete link has the next link waiting on it.
                waiters = [seq + 1] if done <= index < count - 1 else []
                waiters += [w.seq for w in entry.waiters if w.seq - w.instr.dep == seq]
                slots.append((seq, state, waiters))
        return slots

    # -- think-chain window ----------------------------------------------------------

    def park(self) -> Optional[int]:
        """Leave the tick list for the steady part of a think chain.

        Call right after a tick that only counted a ``stall.rob``, so the
        ROB is full and an instruction is left to dispatch.  The core
        parks when its ROB is a head run of latency-2 links, then
        entries that have all completed, then a tail run whose record is
        the next instruction; the head is the tail when the ROB is one
        run.  The head's executing link must be its first, with no
        dependent waiting on it, and the head and the tail must each
        have a completion due on the next cycle ("lockstep").  For the
        rest of the window each completion cycle then retires one head
        link and dispatches one tail link, whose own completion lands on
        the same cycle, and every other cycle counts one ``stall.rob``;
        nothing else can reach the core's tick, so the core skips those
        ticks and :meth:`unpark` rebuilds their effect.  The runs'
        completion events leave the heap.  A live tracer keeps links out
        of runs, so a traced core never parks.

        The window takes one completion per tail-record link left to
        dispatch, but, when the head is not the tail, at most all but
        the head's last link: retirement then never reaches the entries
        behind the head inside the window.  The cheap tests run first; a
        refused two-run park may scan the middle entries, and only a
        park that passes every other test searches the heap.

        Returns the cycle after the window's last completion, on which
        the core must be unparked and tick again, or None when the core
        cannot park.
        """
        rob = self.rob
        head = rob[0]
        tail = rob[-1]
        instructions = self.trace.instructions
        pc = self.pc
        link = instructions[pc]
        if (
            head.__class__ is not LinkRun
            or tail.__class__ is not LinkRun
            or tail.instr is not link
            or link.latency != 2
            or head.instr.latency != 2
            or head.done
            or head.waiters
            or not head.running
            or not tail.running
        ):
            return None
        end = len(instructions)
        if head is not tail:
            if head.count < 2:
                return None
            for index in range(1, len(rob) - 1):
                entry = rob[index]
                if entry.__class__ is LinkRun:
                    if entry.running or entry.done != entry.count:
                        return None
                elif entry.state is not _COMPLETED:
                    return None
            end = min(end, pc + head.count - 1)
        counters = self.stats.counters
        # Bulk adds to existing counters cannot change their order.  A
        # run at the head implies all three (its producer retired), but
        # the window's exactness rests on them, so check.
        if not (
            "stall.rob" in counters
            and "retired_instructions" in counters
            and "dispatched_instructions" in counters
        ):
            return None
        cycle = self.engine.cycle
        callbacks = (head.callback,) if head is tail else (head.callback, tail.callback)
        if not self.engine.cancel(cycle + 1, callbacks):
            return None
        window_end = pc + 1
        while window_end < end and instructions[window_end] is link:
            window_end += 1
        self._parked_at = cycle
        # The last link dispatches on the last completion, one cycle earlier.
        return cycle + 2 * (window_end - pc)

    def unpark(self, fired: bool = False) -> None:
        """Rebuild a parked core's state at the current cycle, exactly as
        ticking it through the window would have left it.

        The current cycle is at most the one :meth:`park` returned.
        ``fired=False`` gives the state before this cycle's events fire
        (every earlier cycle's tick done); ``fired=True`` the state after
        they fired, before this cycle's ticks.  The window's completion
        cycles are ``park + 1 + 2k``: on each one the head and the tail
        each complete a link and start their next (a tail that caught up
        stops, and the tick's dispatch restarts it), and the tick
        retires the head's link and dispatches one more tail link.
        Every other tick counts one ``stall.rob``.  So the head loses,
        and the tail gains, one link per completion whose tick has run,
        ``seq`` and the pc move on by as many, and the tail counts every
        completion that fired as done; a single run is both and keeps
        its size.  The rebuilt completions get fresh sequence numbers,
        the head's first; their order among same-cycle events cannot be
        observed, because only ALU links wait on an ALU.
        """
        park_cycle = self._parked_at
        self._parked_at = None
        cycle = self.engine.cycle
        # Completions whose tick has run, and completions that fired.
        ticked = (cycle - park_cycle) // 2
        completed = ticked
        if fired and cycle == park_cycle + 1 + 2 * ticked:
            completed += 1

        self.pc += ticked
        rob = self.rob
        head = rob[0]
        tail = rob[-1]
        executing = completed - ticked
        head.seq += ticked
        head.count -= ticked
        head.done = executing
        tail.count += ticked
        if tail is not head:
            tail.done += completed
        due = park_cycle + 1 + 2 * completed - cycle
        for run in (head,) if tail is head else (head, tail):
            run.running = run.done < run.count
            if run.running:
                self.engine.schedule(due, run.callback)

        if executing:
            # The head completed this cycle and no tick has run since.
            self.waiting_on_head = False
            self._progress = True
        elif ticked and cycle == park_cycle + 2 * ticked:
            # The last tick retired and dispatched: it stopped on the full
            # ROB unless it ran out of trace or of dispatch width.
            self.waiting_on_head = not self.exhausted() and self.config.fetch_width > 1
        else:
            self.waiting_on_head = True

        if ticked:
            self.stats.add("retired_instructions", ticked)
            self.stats.add("dispatched_instructions", ticked)
        # No transaction opens or closes here: none starts with a link, and
        # each head link retired here leaves a later link of its txid behind.
        stalls = cycle - 1 - park_cycle - ticked
        if stalls:
            self.stall("rob", cycles=stalls)

    def charge_fence_wait(self, ticks: int) -> None:
        """Count ``ticks`` ticks of a core waiting on a held fence, each
        one ``retire_blocked.fence`` plus a ``stall.rob`` while the trace
        has instructions left, as :meth:`tick` counts them.

        ``Simulator.run`` holds a core whose tick left
        ``waiting_on_fence`` set out of its tick list, and calls this
        with the loop iterations the core sat out once an event clears
        the flag, or before a halt or an error reports the machine.
        Nothing dispatches or retires meanwhile, so no transaction opens
        or closes, and the tick that set the flag added both counters, so
        bulk adds cannot change counter order.
        """
        if ticks:
            self.stall("retire-fence", cycles=ticks)
            if not self.exhausted():
                self.stall("rob", cycles=ticks)

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

    def _link_completed(self, run: LinkRun) -> None:
        """A run's executing link completed: as :meth:`_mark_completed`,
        start what waits on it, the next link first."""
        self.waiting_on_head = False
        self._progress = True
        done = run.done + 1
        run.done = done
        if done < run.count:
            self.engine.schedule(run.delay, run.callback)
        else:
            run.running = False
        waiters = run.waiters
        if waiters:
            seq = run.seq + done - 1
            ready = [w for w in waiters if w.seq - w.instr.dep <= seq]
            if ready:
                run.waiters = [w for w in waiters if w.seq - w.instr.dep > seq]
                for waiter in ready:
                    self._start(waiter)

    def complete_after(self, dyn: DynInstr, delay: int) -> None:
        """Schedule completion of ``dyn`` after ``delay`` cycles."""
        self.engine.schedule(delay, partial(self._mark_completed, dyn))

    def _pending_producer(self, seq: int) -> Optional[RobEntry]:
        """The entry to wait on for instruction ``seq``'s result: the
        :class:`DynInstr` itself, or the run whose link it is.  None when
        it has completed."""
        producer = self.dyn_by_seq.get(seq)
        if producer is not None:
            if producer.state is _COMPLETED or producer.state is _RETIRED:
                return None
            return producer
        rob = self.rob
        if not rob or seq < rob[0].seq:
            return None  # retired
        # Not a DynInstr, so a link of the last run starting at or before it.
        run = next(entry for entry in reversed(rob) if entry.seq <= seq)
        return run if seq - run.seq >= run.done else None

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch(self) -> bool:
        """Dispatch up to the fetch width; returns True when dispatch
        stopped on a full ROB or at the trace's end."""
        # Read every cycle: a built trace may still grow (tests insert a
        # log-save into it after the simulator is constructed).
        instructions = self.trace.instructions
        end = len(instructions)
        pc = self.pc
        config = self.config
        width = config.fetch_width
        rob_entries = config.rob_entries
        used = self.rob_used
        rob = self.rob
        adapter = self.adapter
        dyn_by_seq = self.dyn_by_seq
        tracing = self.tracer.enabled
        # A link of the tail run's record joins that run.
        tail = rob[-1] if rob and rob[-1].__class__ is LinkRun else None
        cause: Optional[str] = None
        dispatched = 0
        while dispatched < width and pc < end:
            instr = instructions[pc]
            # Structural hazards, in attribution order.  A link uses no
            # queue and reaches no adapter hook.
            if used >= rob_entries:
                cause = "rob"
                break
            if tail is not None and instr is tail.instr:
                # Its predecessor, the run's last link, may have completed.
                ready = tail.done == tail.count
                tail.count += 1
                if ready:
                    self._start(tail)
            elif instr.kind is _ALU and instr.dep == 1 and not tracing:
                run = LinkRun(instr, pc, self._link_completed)
                rob.append(run)
                producer = self._pending_producer(pc - 1)
                if producer is None:
                    self._start(run)
                else:
                    producer.waiters.append(run)
                tail = run
            else:
                kind = instr.kind
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
                rob.append(dyn)
                dyn_by_seq[pc] = dyn
                if tracing:
                    self.tracer.instant(
                        "instr", "dispatch", tid=self.core_id, seq=pc,
                        kind=kind.value, addr=instr.addr, txid=instr.txid,
                    )
                if kind.uses_load_queue:
                    self.lq_used += 1
                if kind.uses_store_queue:
                    self.sq_used += 1
                # Execute now, or once the producer completes.  dep == 0
                # must not look up its own seq.
                dep = instr.dep
                producer = self._pending_producer(pc - dep) if dep else None
                if producer is None:
                    self._start(dyn)
                else:
                    producer.waiters.append(dyn)
                tail = None
            pc += 1
            used += 1
            dispatched += 1
        self.pc = pc
        self.rob_used = used
        if dispatched:
            self._progress = True
            self.stats.counters["dispatched_instructions"] += dispatched
        elif pc < end:
            self.stall(cause)
        # pc - used is the oldest unretired instruction.
        if pc > self._opens_at or pc - used > self._closes_at:
            self._cross_bounds()
        if cause == "rob" and self.store_buffer.head() is None:
            head = rob[0]
            if head.__class__ is LinkRun:
                if not head.done:
                    self.waiting_on_head = True
            elif head.state is not _COMPLETED:
                self.waiting_on_head = True
        return cause == "rob" or pc >= end

    # -- execution -----------------------------------------------------------------------

    def _start(self, dyn: RobEntry) -> None:
        if dyn.__class__ is LinkRun:
            # The run's next link: its predecessor has completed.
            dyn.running = True
            self._progress = True
            self.engine.schedule(dyn.delay, dyn.callback)
            return
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
        self.waiting_on_fence = False
        # Progress resumes at the next tick; the retire loop re-checks.

    def _retire(self) -> bool:
        """Retire up to the retire width; returns True when retirement
        stopped at a completed fence that :meth:`_fence_blocked` holds."""
        rob = self.rob
        width = self.config.retire_width
        adapter = self.adapter
        retired = 0
        fence_held = False
        while retired < width and rob:
            dyn = rob[0]
            if dyn.__class__ is LinkRun:
                # Links complete in order and reach no adapter hook,
                # observer or queue.
                links = min(dyn.done, width - retired)
                if not links:
                    break
                retired += links
                self.stats.counters["retired_instructions"] += links
                if links == dyn.count:
                    rob.pop(0)
                    continue
                dyn.seq += links
                dyn.count -= links
                dyn.done -= links
                break
            if dyn.state is not _COMPLETED:
                break
            kind = dyn.instr.kind
            if kind.is_fence and self._fence_blocked(dyn):
                self.stall("retire-fence", dyn)
                fence_held = True
                break
            if kind is not _ALU and adapter.retire_blocked(dyn):
                self.stall("retire-adapter", dyn)
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
            self.stats.counters["retired_instructions"] += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "instr", "retire", tid=self.core_id, seq=dyn.seq,
                    kind=kind.value, txid=dyn.instr.txid,
                )
            retired += 1
        if retired:
            self._progress = True
            self.rob_used -= retired
        return fence_held

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
                self.stall("store-release", head)
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
        self.waiting_on_fence = False

    def _flush_acked(self) -> None:
        self.store_buffer.finished()
        self.sq_used -= 1
        self.pending_pmem -= 1
        self.waiting_on_fence = False
