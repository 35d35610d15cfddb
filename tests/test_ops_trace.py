"""Unit tests for high-level ops, transaction records, and traces."""

import pytest

from repro.isa.instructions import Kind, alu, load, store
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import InstructionTrace, OpTrace


def _tx(txid=1):
    tx = TxRecord(txid=txid)
    tx.body = [
        Op.read(0x100),
        Op.compute(3),
        Op.write(0x140, 7),
        Op.write(0x148, 8),
    ]
    tx.log_candidates = [(0x140, 64)]
    return tx


def test_txrecord_writes_and_reads():
    tx = _tx()
    assert len(tx.writes()) == 2
    assert len(tx.reads()) == 1


def test_written_lines_dedup_in_first_write_order():
    tx = TxRecord(txid=1)
    tx.body = [
        Op.write(0x148, 1),
        Op.write(0x100, 2),
        Op.write(0x140, 3),
    ]
    assert tx.written_lines() == [0x140, 0x100]


def test_written_lines_spanning_write():
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x100, 5, size=256)]
    assert tx.written_lines() == [0x100, 0x140, 0x180, 0x1C0]


def test_validate_accepts_covered_writes():
    _tx().validate()


def test_validate_rejects_uncovered_write():
    tx = _tx()
    tx.body.append(Op.write(0x2000, 9))
    with pytest.raises(ValueError):
        tx.validate()


def test_optrace_counts():
    trace = OpTrace(thread_id=0)
    trace.append(_tx(1))
    trace.append(Op.compute(10))
    trace.append(_tx(2))
    assert trace.transaction_count() == 2
    assert trace.store_count() == 4
    trace.validate()


def test_instruction_trace_validate_rejects_forward_dep():
    # A dep is a backward distance; a negative one would point forward.
    trace = InstructionTrace()
    trace.append(alu())
    trace.append(load(0x100, dep=-1))
    trace.append(alu())
    with pytest.raises(ValueError):
        trace.validate()


def test_instruction_trace_validate_rejects_dep_before_start():
    trace = InstructionTrace()
    trace.append(alu())
    trace.append(load(0x100, dep=2))
    with pytest.raises(ValueError):
        trace.validate()


def test_instruction_trace_validate_accepts_dep_to_index_zero():
    trace = InstructionTrace()
    trace.append(alu())
    trace.append(alu())
    trace.append(load(0x100, dep=2))
    trace.validate()


def test_instruction_trace_count_and_indexing():
    trace = InstructionTrace()
    trace.append(alu())
    first = trace.append(load(0x100))
    trace.append(store(0x140, value=1))
    assert trace.count(Kind.LOAD) == 1
    assert trace.count(Kind.ALU) == 1
    assert trace[first].kind is Kind.LOAD
    assert len(trace) == 3


def test_op_compute_latency_default():
    op = Op.compute(5)
    assert op.amount == 5
    assert op.latency == 1
    op2 = Op.compute(5, latency=3)
    assert op2.latency == 3
