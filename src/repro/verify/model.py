"""What persist-verify adds to the persistency model: crash points and
the images recovery may land on.

The checker replays a stream through the persistency model both
checkers share (:class:`~repro.persistence.stream.StreamState`) and
enumerates crash frontiers after every instruction that can change the
reachable crash-state set (:data:`INTERESTING_KINDS`).  Each recovered
image must equal one of the candidate images
:func:`derive_candidates` folds from the stream's own transactions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.codegen import REGION_DATA, ThreadLayout, region_of
from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.trace import InstructionTrace
from repro.lint.profiles import profile_for
from repro.persistence.crash import WORD

#: Instruction kinds after which the reachable crash-state set changes.
INTERESTING_KINDS = frozenset(
    {
        Kind.STORE,
        Kind.CLWB,
        Kind.CLFLUSHOPT,
        Kind.SFENCE,
        Kind.MFENCE,
        Kind.PCOMMIT,
        Kind.TX_BEGIN,
        Kind.TX_END,
        Kind.LOG_FLUSH,
    }
)


def _span_bounds(trace: InstructionTrace, scheme: Scheme) -> List[Tuple[int, int]]:
    """Each transaction's inclusive ``(begin, end)`` index range, in
    ``begin`` order.

    Hardware schemes delimit transactions with ``tx-begin``/``tx-end``
    marks: a nested ``tx-begin`` leaves the outer span open, and a span
    whose ``tx-end`` never appears runs to the end of the stream.
    Software lowering has no marks, and fences inside a transaction
    carry txid 0, so a span is the min..max index range of each nonzero
    txid.  Malformed shapes never raise: they are findings for the
    checkers, not parse errors.

    The walk visits each run's first position (see
    :class:`~repro.isa.trace.InstructionTrace`): a run is one record,
    so a txid's span ends at the last index of its last run, and a
    txid that only ALU links carry still forms a span.
    """
    spans: List[Tuple[int, int]] = []
    runs, instructions = trace.runs, trace.instructions
    if profile_for(scheme).tx_marks:
        alu, tx_begin, tx_end = Kind.ALU, Kind.TX_BEGIN, Kind.TX_END
        begin: Optional[int] = None
        for index in runs:
            kind = instructions[index].kind
            if kind is alu:
                continue
            if kind is tx_begin:
                if begin is None:
                    begin = index
            elif kind is tx_end and begin is not None:
                spans.append((begin, index))
                begin = None
        if begin is not None:
            spans.append((begin, len(trace) - 1))
        return spans
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    stops = runs[1:]
    stops.append(len(instructions))
    for index, stop in zip(runs, stops):
        txid = instructions[index].txid
        if txid:
            first.setdefault(txid, index)
            last[txid] = stop - 1
    return sorted((first[txid], last[txid]) for txid in first)


def derive_candidates(
    trace: InstructionTrace,
    scheme: Scheme,
    layout: ThreadLayout,
    initial_image: Optional[Dict[int, int]] = None,
) -> List[Dict[int, int]]:
    """Candidate durable images after 0..N committed transactions.

    Derived from the stream itself: transaction spans in program order,
    folding each span's data-region stores into the running image.  For
    clean lowered streams these are the images after whole transactions;
    mutated streams keep the *intended* candidates because the
    mutators perturb persists and log writes, not the data stores
    (a data store pushed outside every span drops out — exactly the
    durable state no committed prefix can explain).
    """
    candidates: List[Dict[int, int]] = [dict(initial_image or {})]
    image = dict(initial_image or {})
    last_value_of_load: int = 0
    alu, load, store = Kind.ALU, Kind.LOAD, Kind.STORE
    runs, instructions = trace.runs, trace.instructions
    for begin, end in _span_bounds(trace, scheme):
        # Every span begins at a run's first position; only ALU records
        # repeat in a run, and the fold skips ALUs.
        for index in runs[bisect_left(runs, begin):bisect_right(runs, end)]:
            instr = instructions[index]
            kind = instr.kind
            if kind is alu:
                continue
            if kind is load:
                last_value_of_load = image.get(instr.addr, 0)
            if kind is not store:
                continue
            if region_of(instr.addr, layout) != REGION_DATA:
                continue
            value = instr.value
            if value is None:
                value = last_value_of_load if instr.tag == "log-copy" else 0
            for word in range(instr.addr, instr.addr + instr.size, WORD):
                image[word] = value
        candidates.append(dict(image))
    return candidates
