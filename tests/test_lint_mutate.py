"""Trace mutators keep dependences consistent under relative ``dep``.

A ``dep`` is a backward distance, so :func:`repro.lint.mutate.rebuild`
must re-measure every surviving edge from its producer's new position,
clear an edge whose producer is gone, and never write to the shared
records it was given.
"""

from repro.isa.instructions import (
    Kind,
    alu,
    clwb,
    log_flush,
    log_load,
    store,
    tx_begin,
    tx_end,
)
from repro.isa.trace import InstructionTrace
from repro.lint import lint_instruction_trace, mutate

BLOCK = 0x1_0000_0000


def pair_with_gap() -> InstructionTrace:
    """A Proteus transaction whose log pair has one instruction between
    the ``log-load`` and the ``log-flush``."""
    trace = InstructionTrace()
    trace.append(tx_begin(1))                            # 0
    trace.append(log_load(BLOCK, txid=1))                # 1
    trace.append(alu())                                  # 2
    trace.append(log_flush(BLOCK, txid=1, dep=2))        # 3
    trace.append(store(BLOCK, value=5, txid=1))          # 4
    trace.append(clwb(BLOCK, txid=1))                    # 5
    trace.append(tx_end(1))                              # 6
    trace.validate()
    return trace


def _flush_index(trace: InstructionTrace) -> int:
    return next(i for i, ins in enumerate(trace) if ins.kind is Kind.LOG_FLUSH)


def test_dropping_between_load_and_flush_keeps_the_pair_linked():
    trace = pair_with_gap()
    out = mutate.drop_nth(trace, lambda i, ins: ins.kind is Kind.ALU)
    out.validate()
    flush = _flush_index(out)
    assert out[flush].dep == 1
    assert out[flush - out[flush].dep].kind is Kind.LOG_LOAD
    assert not lint_instruction_trace(out, "proteus").by_code("P006")


def test_dropping_the_log_load_clears_the_dep_and_p006_reports_none():
    trace = pair_with_gap()
    out = mutate.drop_nth(trace, lambda i, ins: ins.kind is Kind.LOG_LOAD)
    out.validate()
    flush = _flush_index(out)
    assert out[flush].dep == 0
    (diag,) = lint_instruction_trace(out, "proteus").by_code("P006")
    assert diag.index == flush
    assert "(dep=-1)" in diag.message


def test_rebuild_shares_unchanged_records_and_leaves_the_input_alone():
    trace = pair_with_gap()
    before = list(trace)
    out = mutate.drop_nth(trace, lambda i, ins: ins.kind is Kind.ALU)
    assert list(trace) == before
    assert all(a is b for a, b in zip(trace, before))
    # Only the flush's dep changed, so every other record is reused.
    flush = _flush_index(out)
    for new, instr in enumerate(out):
        if new != flush:
            assert any(instr is old for old in before)
    assert out[flush] is not trace[_flush_index(trace)]
