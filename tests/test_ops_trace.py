"""Unit tests for high-level ops, transaction records, and traces."""

import pytest

from repro.isa.instructions import Instruction, Kind, alu, load, store
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import InstructionTrace, OpTrace
from tests.test_run_walk import check_run_index


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


def test_validate_rejects_a_repeated_record_reaching_before_the_start():
    # Only a run's first position is checked; its dep already reaches
    # before index 0 there.
    trace = InstructionTrace()
    trace.append_run(Instruction(Kind.ALU, dep=1), 3)
    assert trace.runs.tolist() == [0]
    with pytest.raises(ValueError, match="instruction 0 has dep=1"):
        trace.validate()


def test_validate_checks_each_run_at_its_first_position():
    trace = InstructionTrace()
    trace.append(alu())
    trace.append_run(Instruction(Kind.ALU, dep=1), 4)
    trace.append(load(0x100, dep=6))
    assert trace.runs.tolist() == [0, 1, 5]
    with pytest.raises(ValueError, match="instruction 5 has dep=6"):
        trace.validate()


def test_append_run_of_zero_copies_appends_nothing():
    trace = InstructionTrace()
    trace.append(alu())
    trace.append_run(Instruction(Kind.ALU, dep=1), 0)
    assert len(trace) == 1
    assert trace.runs.tolist() == [0]
    trace.append_run(Instruction(Kind.ALU, dep=1), 2)
    trace.append_run(alu(), 0)
    assert len(trace) == 3
    assert trace.runs.tolist() == [0, 1]
    check_run_index(trace)


def test_append_run_repeats_only_alu_records():
    trace = InstructionTrace()
    with pytest.raises(ValueError):
        trace.append_run(store(0x140, value=1), 2)
    with pytest.raises(ValueError):
        trace.append_run(alu(), -1)
    trace.append_run(store(0x140, value=1), 1)
    assert trace.runs.tolist() == [0]


def test_every_way_of_building_a_trace_gets_the_appends_index():
    link = Instruction(Kind.ALU, dep=1)
    records = [alu(), link, link, load(0x100, dep=1), store(0x140, value=1), link]
    appended = InstructionTrace()
    for record in records:
        appended.append(record)
    extended = InstructionTrace()
    extended.extend(records[:2])
    extended.extend(iter(records[2:]))
    constructed = InstructionTrace(instructions=list(records))
    assert appended.runs.tolist() == list(range(len(records)))
    assert extended.runs == appended.runs
    assert constructed.runs == appended.runs
    assert constructed == appended == extended
    for trace in (appended, extended, constructed):
        check_run_index(trace)
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
