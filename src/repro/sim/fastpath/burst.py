"""Structure-of-arrays execution of ALU runs (the "burst" solver).

The paper workloads' lowered traces are dominated by long runs of ALU
instructions (hash/compute phases between memory and logging ops).  For
an out-of-order core whose ROB holds *only* ALU work and whose store
buffer, MSHRs and persist counters are empty, every scheme adapter hook
is a pure no-op, so the core's timing over such a run is an exact
function of three per-instruction recurrences:

``dispatch[i] = max(c0, dispatch[i-1], dispatch[i-W] + 1, retire[i-R])``
    in-order dispatch, at most ``W`` (fetch width) per cycle, gated on a
    free ROB slot (``R`` entries; a slot freed by a retire in the same
    cycle is usable, because retirement runs before dispatch in a tick);

``complete[i] = max(dispatch[i], complete[dep(i)]) + max(1, latency)``
    execution starts at dispatch or when the producer completes
    (completion events fire before ticks, so equality means same-cycle);

``retire[i] = max(complete[i], retire[i-1], retire[i-RW] + 1)``
    greedy in-order retirement, at most ``RW`` per cycle, eligible the
    cycle completion fires.

The solver prices a whole run in one O(n) pass, including any ALU-only
in-flight window already in the ROB (their completion cycles are known
from ``DynInstr.fp_complete`` or derivable through the dependence
chain).  The driver then consumes the arrays per quantum: dispatch and
retire counts become bulk counter updates, elided completions count as
fired events for the clock-advance decision, and zero-dispatch iterated
cycles accrue ``stall.rob`` exactly as the reference front end would
(the only possible stall cause inside a run is a full ROB).

The window ends at ``t_end`` — the first cycle at which the instruction
*after* the run could dispatch (or, at end of trace, one cycle past the
last retirement).  ``materialize`` reconstructs exact architectural
state at any cycle ``h <= t_end`` — retired prefix popped, in-flight
instructions rebuilt with real ``DynInstr`` objects, pending completions
re-scheduled on the ring, dependence waiters re-attached — which is also
how a fault halt forces a mid-quantum split at the exact cycle.

**Cutoff windows.**  The ROB needn't be pure ALU.  Let the *cutoff* be
the first non-ALU entry: everything before it is an ALU prefix whose
retire schedule the recurrences price exactly, and nothing at or after
the cutoff can retire earlier than the prefix does (in-order
retirement), so those entries are simply frozen — their retire cycle is
the :data:`INF` sentinel and the window ends no later than the first
cycle the cutoff entry could possibly retire (``max`` of the prefix's
last retirement and the cutoff's completion, when known).  Post-cutoff
entries keep their real callbacks: completions, dependence waiters and
adapter interactions fire as genuine events mid-window, which is exact
because they cannot influence the prefix's retire schedule or the
ALU-only dispatch stream the window commits.  This is what elides the
long ROB-drain phase after each compute run (~ROB-size cycles of
1-per-cycle retirement behind one store or log op).

When the cutoff's completion cycle is *unknowable* without simulating
the memory system (an outstanding demand load, an unresolved log
flush), the window is marked ``shadow``: the unknown completion can
only be delivered by — or scheduled by — an engine *heap* event, so the
driver materializes shadow windows before **any** heap event fires
(every clock jump is already bounded by ``next_event_cycle``).  That
ordering guarantees the cutoff is still incomplete at materialization,
keeping the rebuilt state consistent with the sentinel by construction.
A new-run instruction that *depends* on an unknown completion bails the
window instead — its own completion event would otherwise fire at a
cycle the solver cannot name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.cpu.ooo_core import DynInstr, OooCore, State
from repro.isa.instructions import Kind
from repro.isa.trace import InstructionTrace

#: Minimum ALU-run length worth solving analytically; shorter runs tick
#: normally (which is exact anyway).
MIN_BURST = 16

#: Minimum ROB position of the cutoff (first non-ALU entry) worth a
#: solve when its completion cycle is already known: the window cannot
#: outlive the cutoff's retirement, so a near-head cutoff bounds the
#: span to a few cycles — cheaper to tick through than to solve.
MIN_CUTOFF = 8

#: Completion-cycle sentinel for an instruction whose finish time is
#: unknown inside the window (the shadow load and everything data- or
#: retire-ordered behind it).  Far above any reachable cycle, low enough
#: that the recurrences' small additive terms cannot overflow int64.
INF = 1 << 60

IntArray = npt.NDArray[np.int64]


class TraceIndex:
    """Per-core precomputed trace arrays (kind runs, latencies, deps)."""

    def __init__(self, trace: InstructionTrace) -> None:
        n = len(trace)
        self.length = n
        is_alu = np.fromiter(
            (instr.kind is Kind.ALU for instr in trace), dtype=bool, count=n
        )
        #: sorted positions of every non-ALU instruction
        self.non_alu: IntArray = np.flatnonzero(~is_alu).astype(np.int64)
        self.lats: IntArray = np.fromiter(
            (max(1, instr.latency) for instr in trace), dtype=np.int64, count=n
        )
        self.deps: IntArray = np.fromiter(
            (instr.dep for instr in trace), dtype=np.int64, count=n
        )

    def alu_run_end(self, pc: int) -> int:
        """Index of the first non-ALU instruction at or after ``pc``."""
        pos = int(np.searchsorted(self.non_alu, pc))
        if pos < self.non_alu.shape[0]:
            return int(self.non_alu[pos])
        return self.length


class BurstWindow:
    """One solved ALU run: per-instruction cycle arrays plus cursors."""

    def __init__(
        self,
        core: OooCore,
        index: TraceIndex,
        c0: int,
        pc0: int,
        end: int,
        m: int,
        disp: List[int],
        comp: List[int],
        ret: List[int],
        t_end: int,
        exhausted: bool,
        shadow: bool,
    ) -> None:
        self.core = core
        self.index = index
        self.c0 = c0
        self.pc0 = pc0
        self.end = end
        self.m = m
        self.n_new = end - pc0
        self.disp = disp
        self.comp = comp
        self.ret = ret
        self.t_end = t_end
        self.exhausted = exhausted
        #: a shadow window must materialize before any heap event fires.
        self.shadow = shadow
        self.disp_new: IntArray = np.array(disp[m:], dtype=np.int64)
        self.ret_all: IntArray = np.array(ret, dtype=np.int64)
        self.comp_new_sorted: IntArray = np.sort(
            np.array(comp[m:], dtype=np.int64)
        )
        # cursors over the (sorted) arrays; everything before a cursor
        # has been committed to the Stats counters.
        self.di = 0
        self.ri = 0
        self.fi = 0

    # -- per-iteration consumption ----------------------------------------

    def step(self, counters: Dict[str, int], cycle: int) -> "tuple[int, int, int]":
        """Commit one iterated cycle; returns (dispatched, retired, fired)."""
        disp = self.disp_new
        di = self.di
        nd = disp.shape[0]
        while di < nd and disp[di] <= cycle:
            di += 1
        dispatched = di - self.di
        self.di = di

        ret = self.ret_all
        ri = self.ri
        nr = ret.shape[0]
        while ri < nr and ret[ri] <= cycle:
            ri += 1
        retired = ri - self.ri
        self.ri = ri

        comp = self.comp_new_sorted
        fi = self.fi
        nf = comp.shape[0]
        while fi < nf and comp[fi] <= cycle:
            fi += 1
        fired = fi - self.fi
        self.fi = fi

        if dispatched:
            counters["dispatched_instructions"] += dispatched
        if retired:
            counters["retired_instructions"] += retired
        if dispatched == 0 and not (self.exhausted and di >= nd):
            counters["stall.rob"] += 1
        return dispatched, retired, fired

    def next_activity(self) -> Optional[int]:
        """Earliest uncommitted activity cycle (fast-forward target).

        ``None`` when every remaining cycle carries the :data:`INF`
        sentinel — a shadow window fully stalled on its load has no
        self-generated activity; the clock is then bounded by real
        events alone (a shadow window guarantees at least one pending:
        the load's memory chain or its producer's completion).
        """
        candidates = [self.t_end]
        if self.di < self.disp_new.shape[0]:
            candidates.append(int(self.disp_new[self.di]))
        if self.ri < self.ret_all.shape[0]:
            candidates.append(int(self.ret_all[self.ri]))
        if self.fi < self.comp_new_sorted.shape[0]:
            candidates.append(int(self.comp_new_sorted[self.fi]))
        earliest = min(candidates)
        return earliest if earliest < INF else None

    # -- bulk (quantum) consumption ---------------------------------------

    def activity_in(self, start: int, stop: int) -> IntArray:
        """Distinct activity cycles of this window within [start, stop)."""
        disp = self.disp_new
        ret = self.ret_all
        comp = self.comp_new_sorted
        parts = [
            disp[self.di: int(np.searchsorted(disp, stop, side="left"))],
            ret[self.ri: int(np.searchsorted(ret, stop, side="left"))],
            comp[self.fi: int(np.searchsorted(comp, stop, side="left"))],
        ]
        merged: IntArray = np.concatenate(parts)
        return np.unique(merged[merged >= start])

    def bulk_commit(
        self, counters: Dict[str, int], start: int, stop: int, iterated: IntArray
    ) -> None:
        """Commit the whole quantum [start, stop) in one shot.

        ``iterated`` is the sorted array of cycles the reference loop
        would have iterated inside the quantum; stall accounting is
        per-iteration, not per-cycle, which is why it is needed.
        """
        disp = self.disp_new
        d_hi = int(np.searchsorted(disp, stop, side="left"))
        d_count = d_hi - self.di
        if d_count:
            counters["dispatched_instructions"] += d_count

        ret = self.ret_all
        r_hi = int(np.searchsorted(ret, stop, side="left"))
        r_count = r_hi - self.ri
        if r_count:
            counters["retired_instructions"] += r_count

        # Zero-dispatch iterated cycles stall on the full ROB unless the
        # front end has fully consumed a trace-ending run.
        upper = stop
        if self.exhausted and disp.shape[0]:
            upper = min(stop, int(disp[-1]) + 1)
        if upper > start:
            i_lo = int(np.searchsorted(iterated, start, side="left"))
            i_hi = int(np.searchsorted(iterated, upper, side="left"))
            d_upper = int(np.searchsorted(disp, upper, side="left"))
            dispatch_cycles = int(np.unique(disp[self.di: d_upper]).shape[0])
            stalls = (i_hi - i_lo) - dispatch_cycles
            if stalls:
                counters["stall.rob"] += stalls

        self.di = d_hi
        self.ri = r_hi
        comp = self.comp_new_sorted
        self.fi = int(np.searchsorted(comp, stop, side="left"))

    # -- exit --------------------------------------------------------------

    def materialize(self, engine: "FastEngineProto", h: int) -> None:
        """Rebuild exact architectural state as of the start of cycle ``h``.

        ``h`` is normally ``t_end``; a pending halt materializes earlier
        (the forced mid-quantum split).  Events due at ``h`` have not
        fired yet, so an instruction completing at ``h`` is still
        EXECUTING here and its completion is re-scheduled on the ring.
        """
        core = self.core
        m = self.m
        ret = self.ret
        disp = self.disp
        comp = self.comp
        rob = core.rob
        dyn_by_seq = core.dyn_by_seq

        new_rob: List[DynInstr] = []
        for i in range(m):
            dyn = rob[i]
            if ret[i] < h:
                dyn.state = State.RETIRED
                if dyn.seq in dyn_by_seq and not dyn.waiters:
                    del dyn_by_seq[dyn.seq]
            else:
                new_rob.append(dyn)

        trace = core.frontend.trace
        lats = self.index.lats
        deps = self.index.deps
        dispatched_new = 0
        for j in range(self.n_new):
            i = m + j
            if disp[i] >= h:
                break
            dispatched_new += 1
            seq = self.pc0 + j
            if ret[i] < h:
                # Retired: never enters dyn_by_seq, which is how a later
                # dependence on it reads as satisfied.
                continue
            dyn = DynInstr(trace[seq], seq)
            completion = comp[i]
            if completion < h:
                dyn.state = State.COMPLETED
                dyn.fp_complete = completion
            else:
                started = completion - int(lats[seq])
                if started < h:
                    dyn.state = State.EXECUTING
                    dyn.fp_complete = completion
                    engine.ring_schedule_at(completion, core._mark_completed, dyn)
                else:
                    dep = int(deps[seq])
                    producer = dyn_by_seq.get(dep)
                    if producer is None or producer.completed():
                        raise RuntimeError(
                            "fastpath burst materialization inconsistency: "
                            f"seq {seq} waits on dep {dep} at cycle {h}"
                        )
                    producer.waiters.append(
                        lambda c=core, d=dyn: c._start(d)
                    )
            new_rob.append(dyn)
            dyn_by_seq[seq] = dyn

        core.rob = new_rob
        core.frontend.pc = self.pc0 + dispatched_new


class FastEngineProto:
    """Structural protocol of the engine surface :class:`BurstWindow` uses.

    (Kept as a nominal stand-in rather than ``typing.Protocol`` so the
    module has no runtime dependency on the engine; the driver always
    passes a :class:`repro.sim.fastpath.engine.FastEngine`.)
    """

    def ring_schedule_at(
        self, cycle: int, fn: "object", arg: "object"
    ) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError


def try_burst(
    core: OooCore, index: TraceIndex, c0: int
) -> "Tuple[Optional[BurstWindow], int]":
    """Solve an ALU run starting at the core's current pc.

    Returns ``(window, blocking_seq)``.  ``window`` is None when the
    preconditions fail; ``blocking_seq`` is the sequence number of a
    non-ALU ROB entry that caused the failure (or -1).  Since a ROB
    entry only leaves by retiring in order, the caller can skip further
    attempts until ``rob[0].seq`` passes it — without that memo a core
    draining a long in-flight window behind one store re-scans the ROB
    every cycle.

    Preconditions for exactness: the store buffer is empty (per-tick
    drain work cannot be elided); no retire observer is hooked (fault
    campaigns watch every retirement and must see real ticks); at least
    :data:`MIN_BURST` consecutive ALU instructions follow the pc; every
    ROB entry *before the cutoff* (first non-ALU) is an ALU with a known
    or chain-derivable completion cycle; and no new-run instruction
    depends on an unknown completion.  Under these conditions every
    elided hook is a pure no-op for all schemes.
    """
    if core.retire_observer is not None:
        return None, -1
    buffer = core.store_buffer
    if buffer._queue or buffer._in_flight:
        return None, -1
    pc0 = core.frontend.pc
    end = index.alu_run_end(pc0)
    n_new = end - pc0
    if n_new < MIN_BURST:
        return None, -1

    rob = core.rob
    m = len(rob)
    # Cheap gate before the O(m + n) solve: a near-head cutoff whose
    # completion is already known bounds the window to a few cycles;
    # skip until it retires (ROB drains in order, so the memo is exact).
    for dyn in rob[:MIN_CUTOFF]:
        if dyn.instr.kind is not Kind.ALU:
            if dyn.state is State.COMPLETED or dyn.fp_complete is not None:
                return None, dyn.seq
            break
    comp_by_seq: Dict[int, int] = {}
    unknown_seqs: Set[int] = set()
    init_comp: List[Optional[int]] = []
    cutoff = m
    for idx, dyn in enumerate(rob):
        if cutoff == m and dyn.instr.kind is not Kind.ALU:
            cutoff = idx
        state = dyn.state
        completion: Optional[int]
        if state is State.COMPLETED:
            known = dyn.fp_complete
            completion = known if known is not None else c0
        elif state is State.EXECUTING:
            completion = dyn.fp_complete
        elif state is State.DISPATCHED:
            # The start-at-producer-completion chain only prices ALU
            # execution; a dispatched memory/log op completes through
            # adapter or memory paths the solver cannot model.
            dep = dyn.instr.dep
            producer_completion = (
                comp_by_seq.get(dep)
                if dep >= 0 and dyn.instr.kind is Kind.ALU
                else None
            )
            if producer_completion is None:
                completion = None
            else:
                completion = producer_completion + max(1, dyn.instr.latency)
        else:
            completion = None
        if completion is None:
            if idx < cutoff:
                # An ALU-prefix entry the solver cannot price.
                return None, -1
            unknown_seqs.add(dyn.seq)
        else:
            comp_by_seq[dyn.seq] = completion
        init_comp.append(completion)

    config = core.config
    width = config.fetch_width
    retire_width = config.retire_width
    rob_entries = config.rob_entries
    total = m + n_new
    disp = [0] * total
    comp = [0] * total
    ret = [0] * total

    for i in range(m):
        disp[i] = c0 - 1
        known_comp = init_comp[i]
        comp[i] = known_comp if known_comp is not None else INF
        if i >= cutoff:
            # Frozen: nothing at or after the cutoff retires in-window.
            ret[i] = INF
            continue
        r = comp[i]
        if r < c0:
            r = c0
        if i:
            if ret[i - 1] > r:
                r = ret[i - 1]
            if i >= retire_width and ret[i - retire_width] + 1 > r:
                r = ret[i - retire_width] + 1
        ret[i] = r

    lats = index.lats
    deps = index.deps
    for j in range(n_new):
        i = m + j
        seq = pc0 + j
        d = c0
        if i:
            prev = disp[i - 1]
            if prev > d:
                d = prev
        if i >= width:
            paced = disp[i - width] + 1
            if paced > d:
                d = paced
        if i >= rob_entries:
            freed = ret[i - rob_entries]
            if freed > d:
                d = freed
        disp[i] = d
        start = d
        dep = int(deps[seq])
        if dep >= 0:
            if dep >= pc0:
                producer_completion = comp[m + (dep - pc0)]
                if producer_completion > start:
                    start = producer_completion
            else:
                maybe = comp_by_seq.get(dep)
                if maybe is not None:
                    if maybe > start:
                        start = maybe
                elif dep in unknown_seqs:
                    # Its completion event would fire at a cycle the
                    # solver cannot name; no window here.
                    return None, -1
        comp[i] = start + int(lats[seq])
        if cutoff < m:
            # In-order: new instructions retire behind the frozen cutoff.
            ret[i] = INF
            continue
        r = comp[i]
        if i:
            if ret[i - 1] > r:
                r = ret[i - 1]
            if i >= retire_width and ret[i - retire_width] + 1 > r:
                r = ret[i - retire_width] + 1
        else:
            if r < c0:
                r = c0
        ret[i] = r

    exhausted = end >= index.length
    if exhausted:
        t_end = ret[total - 1] + 1
    else:
        d = c0
        if total:
            prev = disp[total - 1]
            if prev > d:
                d = prev
        if total >= width:
            paced = disp[total - width] + 1
            if paced > d:
                d = paced
        if total >= rob_entries:
            freed = ret[total - rob_entries]
            if freed > d:
                d = freed
        t_end = d
    shadow = False
    if cutoff < m:
        # End before the cutoff entry could possibly retire: after the
        # ALU prefix's last retirement, once the cutoff has completed.
        head_free = ret[cutoff - 1] if cutoff else c0
        comp_cut = init_comp[cutoff]
        if comp_cut is None:
            # Unknown completion — only heap events can deliver it; the
            # driver materializes shadow windows before any heap event.
            shadow = True
        else:
            t_bound = comp_cut if comp_cut > head_free else head_free
            if t_bound < t_end:
                t_end = t_bound
    if t_end <= c0:
        return None, -1

    return BurstWindow(
        core, index, c0, pc0, end, m, disp, comp, ret, t_end, exhausted,
        shadow,
    ), -1
