"""Lint IR: transaction spans over a lowered stream.

A lowered :class:`~repro.isa.trace.InstructionTrace` is straight-line
code, and transaction marks partition it into atomicity regions.  A
:class:`TxSpan` is one transaction's index range.  Hardware schemes
carry explicit ``tx-begin``/``tx-end`` marks; software schemes have no
marks, so spans are recovered from the ``txid`` each lowered
instruction carries.  persist-verify folds each span's data stores into
the images recovery may land on
(:func:`repro.verify.model.derive_candidates`); persist-lint walks the
stream itself.

The builder never raises on malformed streams (orphan marks, nested
transactions): shape violations are findings for the rule engine, not
parse errors — the whole point is checking broken streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.instructions import Kind
from repro.isa.trace import InstructionTrace


@dataclass(frozen=True)
class TxSpan:
    """One transaction's index range ``[begin, end]`` (inclusive).

    ``explicit`` spans come from ``tx-begin``/``tx-end`` marks; implicit
    spans are reconstructed from instruction ``txid`` fields (software
    schemes).  ``closed`` is False for a dangling explicit span whose
    ``tx-end`` never appears.
    """

    txid: int
    begin: int
    end: int
    explicit: bool
    closed: bool = True


@dataclass
class LintIR:
    """One thread's stream plus its transaction spans."""

    trace: InstructionTrace
    spans: List[TxSpan] = field(default_factory=list)


def _explicit_spans(trace: InstructionTrace) -> List[TxSpan]:
    spans: List[TxSpan] = []
    open_begin: Optional[int] = None
    open_txid = 0
    for index, instr in enumerate(trace):
        if instr.kind is Kind.TX_BEGIN:
            if open_begin is None:
                open_begin, open_txid = index, instr.txid
            # Nested tx-begin: leave the outer span open; the rule engine
            # reports the shape violation.
        elif instr.kind is Kind.TX_END and open_begin is not None:
            spans.append(TxSpan(open_txid, open_begin, index, explicit=True))
            open_begin = None
    if open_begin is not None:
        spans.append(
            TxSpan(open_txid, open_begin, len(trace) - 1, explicit=True, closed=False)
        )
    return spans


def _implicit_spans(trace: InstructionTrace) -> List[TxSpan]:
    """Spans recovered from ``txid`` fields (software lowering has no
    marks; fences inside a transaction carry txid 0, so a span is the
    min..max index range of each nonzero txid)."""
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for index, instr in enumerate(trace):
        if instr.txid:
            first.setdefault(instr.txid, index)
            last[instr.txid] = index
    return [
        TxSpan(txid, first[txid], last[txid], explicit=False)
        for txid in sorted(first)
    ]


def build_ir(trace: InstructionTrace, tx_marks: bool) -> LintIR:
    """Build the IR for one stream.

    ``tx_marks`` selects explicit (hardware schemes) vs implicit
    (software schemes) transaction-span recovery.
    """
    spans = _explicit_spans(trace) if tx_marks else _implicit_spans(trace)
    return LintIR(trace=trace, spans=spans)
