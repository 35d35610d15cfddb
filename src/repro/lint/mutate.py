"""Trace mutators: manufacture persistency-ordering bugs.

Each mutator takes a correct lowered :class:`InstructionTrace` and
returns a new trace with one specific contract violation injected —
exactly the bug class a given lint rule exists to catch.  They are used
three ways:

* the deliberately-buggy stream corpus under ``tests/`` exercises one
  rule per mutator;
* :data:`repro.verify.crossval.ANALOG_MUTATORS` maps the fault
  campaign's deliberate-violation :class:`~repro.faults.plan.FaultPlan`
  modes onto mutations, closing the static/dynamic loop;
* ad-hoc debugging (`what would the lint say if codegen forgot X?`).

All mutators preserve ``dep`` consistency.  A ``dep`` is a backward
distance, so after dropping or reordering, each surviving edge's
distance is recomputed from its producer's new position, and a
dependence on a dropped instruction becomes ``0``, no producer (that
*is* the bug for the dangling-producer mutator).  Instructions are
shared, immutable records: a mutator substitutes new records and never
writes to an existing one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.isa.instructions import FENCE_KINDS, Instruction, Kind
from repro.isa.trace import InstructionTrace

#: A mutator: correct stream in, buggy stream out.
Mutator = Callable[[InstructionTrace], InstructionTrace]


def rebuild(
    trace: InstructionTrace,
    order: Sequence[int],
    overrides: Optional[Dict[int, Instruction]] = None,
) -> InstructionTrace:
    """A new trace holding ``trace[i] for i in order`` with deps remapped.

    ``order`` lists surviving *old* indices in their new order.
    ``overrides`` substitutes whole instructions by old index (applied
    before dep remapping).  Each dep is re-measured from the producer's
    new position; a dep pointing at a dropped instruction, or at one
    that now comes later, is cleared to ``0``.  Consecutive copies of
    one ALU record form one run (:attr:`InstructionTrace.runs`), as a
    think chain's links do in a lowered stream.
    """
    overrides = overrides or {}
    new_index = {old: new for new, old in enumerate(order)}
    # [record, copies] per run of the new trace.
    runs: List[List] = []
    for new, old in enumerate(order):
        instr = overrides.get(old, trace[old])
        mapped = new_index.get(instr.producer_index(old))
        dep = new - mapped if mapped is not None and mapped < new else 0
        if dep != instr.dep:
            instr = replace(instr, dep=dep)
        if runs and instr is runs[-1][0] and instr.kind is Kind.ALU:
            runs[-1][1] += 1
        else:
            runs.append([instr, 1])
    out = InstructionTrace(thread_id=trace.thread_id)
    for instr, copies in runs:
        out.append_run(instr, copies)
    return out


def _nth_index(
    trace: InstructionTrace,
    predicate: Callable[[int, Instruction], bool],
    nth: int,
) -> int:
    """Old index of the ``nth`` (1-based) instruction matching ``predicate``."""
    seen = 0
    for index, instr in enumerate(trace):
        if predicate(index, instr):
            seen += 1
            if seen == nth:
                return index
    raise ValueError(f"trace has only {seen} matching instructions, wanted #{nth}")


def drop_nth(
    trace: InstructionTrace,
    predicate: Callable[[int, Instruction], bool],
    nth: int = 1,
) -> InstructionTrace:
    """Drop the ``nth`` instruction matching ``predicate``."""
    target = _nth_index(trace, predicate, nth)
    return rebuild(trace, [i for i in range(len(trace)) if i != target])


def drop_every(
    trace: InstructionTrace,
    predicate: Callable[[int, Instruction], bool],
    every: int,
) -> InstructionTrace:
    """Drop every ``every``-th instruction matching ``predicate``
    (``every=1`` drops them all) — the static analog of the fault
    injector's periodic admission drops."""
    if every < 1:
        raise ValueError("drop period must be >= 1")
    seen = 0
    keep: List[int] = []
    for index, instr in enumerate(trace):
        if predicate(index, instr):
            seen += 1
            if seen % every == 0:
                continue
        keep.append(index)
    return rebuild(trace, keep)


# -- named mutators (the corpus) ------------------------------------------------


def drop_log_flush(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Proteus: drop the ``nth`` ``log-flush`` — its store loses undo
    coverage (P001) and its ``log-load`` goes dead (W102)."""
    return drop_nth(trace, lambda i, ins: ins.kind is Kind.LOG_FLUSH, nth)


def drop_sfence(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Drop the ``nth`` ``sfence``.  Which rule fires depends on which
    barrier dies: after the log phase -> P002, after the logFlag set ->
    P003, after the body flush -> P005."""
    return drop_nth(trace, lambda i, ins: ins.kind is Kind.SFENCE, nth)


def drop_clwb_tagged(
    trace: InstructionTrace, tag: str, nth: int = 1
) -> InstructionTrace:
    """Drop the ``nth`` ``clwb`` carrying ``tag`` (``"log"`` -> P002,
    ``"logflag"`` -> P003, ``""`` (data) -> P005)."""
    return drop_nth(
        trace, lambda i, ins: ins.kind is Kind.CLWB and ins.tag == tag, nth
    )


def drop_clwb_tagged_every(
    trace: InstructionTrace, tag: str, every: int
) -> InstructionTrace:
    """Periodic form of :func:`drop_clwb_tagged`."""
    return drop_every(
        trace, lambda i, ins: ins.kind is Kind.CLWB and ins.tag == tag, every
    )


def drop_log_flush_every(trace: InstructionTrace, every: int) -> InstructionTrace:
    """Periodic form of :func:`drop_log_flush`."""
    return drop_every(trace, lambda i, ins: ins.kind is Kind.LOG_FLUSH, every)


def duplicate_clwb_tagged(
    trace: InstructionTrace, tag: str = "", nth: int = 1
) -> InstructionTrace:
    """Repeat the ``nth`` ``clwb`` carrying ``tag`` back to back — the
    second flush hits an already-pending line (W101)."""
    target = _nth_index(
        trace, lambda i, ins: ins.kind is Kind.CLWB and ins.tag == tag, nth
    )
    order = list(range(target + 1)) + [target] + list(range(target + 1, len(trace)))
    return rebuild(trace, order)


def reorder_store_before_log(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Hoist the ``nth`` transactional data store to the top of its
    transaction, ahead of the logging that covers it (P002).

    Works for both lowerings: under Proteus the store jumps its
    ``log-load``/``log-flush`` pair; under PMEM it jumps the whole
    log-copy/flush/logFlag prologue.
    """
    target = _nth_index(
        trace, lambda i, ins: ins.kind is Kind.STORE and ins.tag == "data", nth
    )
    txid = trace[target].txid
    insert_at = next(i for i, ins in enumerate(trace) if ins.txid == txid)
    if trace[insert_at].kind is Kind.TX_BEGIN:
        insert_at += 1
    order = list(range(insert_at)) + [target]
    order += [i for i in range(insert_at, len(trace)) if i != target]
    return rebuild(trace, order)


def orphan_tx_end(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Drop the ``nth`` ``tx-begin``, orphaning its ``tx-end`` and
    pushing its stores outside any transaction (P004)."""
    return drop_nth(trace, lambda i, ins: ins.kind is Kind.TX_BEGIN, nth)


def dangling_tx_begin(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Drop the ``nth`` ``tx-end``, leaving its ``tx-begin`` open (P004)."""
    return drop_nth(trace, lambda i, ins: ins.kind is Kind.TX_END, nth)


def dangling_log_flush(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Clear the ``nth`` ``log-flush``'s producer dependence (P006)."""
    target = _nth_index(trace, lambda i, ins: ins.kind is Kind.LOG_FLUSH, nth)
    override = replace(trace[target], dep=0)
    return rebuild(trace, range(len(trace)), overrides={target: override})


def store_outside_tx(trace: InstructionTrace, addr: int = 0x1_0000_1000) -> InstructionTrace:
    """Append a bare persistent store after the last transaction (P004)."""
    out = rebuild(trace, range(len(trace)))
    out.append(Instruction(Kind.STORE, addr=addr, size=8, txid=0, tag="data"))
    return out


# -- crash-state mutators (the verify corpus) -----------------------------------
#
# These manufacture bugs whose *shape* can be perfectly legal — every
# fence, flush and log write still present and ordered — but whose
# *values* leave a reachable crash state recovery cannot repair.  They
# exist to prove the model checker (:mod:`repro.verify`) sees strictly
# more than pattern-local lint rules can.


def corrupt_sw_log_payload(
    trace: InstructionTrace, nth: int = 1, value: int = 0xDEAD_BEEF
) -> InstructionTrace:
    """Corrupt the ``nth`` software log-copy store's payload.

    The lowered log copy stores ``value=None`` (the payload comes from
    the paired load of the data line); overriding it with a wrong
    explicit value leaves the stream's ordering shape untouched — every
    lint rule still passes — but the undo log now holds a wrong
    pre-image, so rolling back a crashed transaction restores garbage.
    Only the crash-state checker catches this.
    """
    target = _nth_index(
        trace,
        lambda i, ins: ins.kind is Kind.STORE
        and ins.tag == "log-copy"
        and ins.value is None,
        nth,
    )
    override = replace(trace[target], value=value)
    return rebuild(trace, range(len(trace)), overrides={target: override})


def drop_sw_log_header(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Drop the ``nth`` *covering* software log header store — a torn pair.

    Only headers whose logged data line the same transaction later
    writes are candidates (conservative logging also copies lines the
    transaction never touches; tearing one of those is harmless).  The
    payload persists but the header that names the logged data line
    never exists, so recovery cannot apply the entry and the covered
    data store loses its undo coverage (P001 for lint; an unrecoverable
    frontier for the checker).
    """

    def covering_header(index: int, ins: Instruction) -> bool:
        if ins.kind is not Kind.STORE or ins.tag != "log-hdr" or ins.value is None:
            return False
        line = ins.value
        return any(
            later.kind is Kind.STORE
            and later.tag == "data"
            and later.txid == ins.txid
            and (later.addr & ~63) == line
            for later in list(trace)[index + 1 :]
        )

    return drop_nth(trace, covering_header, nth)


def defer_clwb_past_commit(trace: InstructionTrace, nth: int = 1) -> InstructionTrace:
    """Move the ``nth`` data ``clwb`` past its transaction's commit fence.

    The flush still exists — the line does eventually persist — but only
    in the epoch *after* the commit point (``tx-end``, or the fence
    sealing the software logFlag clear), so a crash between commit and
    the stray flush exposes a committed transaction with a missing
    write: the epoch-spanning persist (P005 for lint; a failing frontier
    for the checker).
    """
    target = _nth_index(
        trace, lambda i, ins: ins.kind is Kind.CLWB and ins.tag == "", nth
    )
    txid = trace[target].txid

    def is_commit(index: int, ins: Instruction) -> bool:
        if ins.txid != txid or index <= target:
            return False
        if ins.kind is Kind.TX_END:
            return True  # hardware / SSHL commit mark (is its own fence)
        return (
            ins.kind is Kind.STORE and ins.tag == "logflag" and ins.value == 0
        )  # software commit: the logFlag clear

    commit = _nth_index(trace, is_commit, 1)
    # Past the *fence* that seals the commit, or the move is harmless:
    # a fence orders every flush issued before it, wherever it sits.
    fence = commit
    while trace[fence].kind not in FENCE_KINDS:
        fence += 1
        if fence >= len(trace):
            raise ValueError("commit point is never fenced; nothing to defer past")
    order = [i for i in range(fence + 1) if i != target] + [target]
    order += list(range(fence + 1, len(trace)))
    return rebuild(trace, order)
