"""Property-based invariants of per-scheme code generation.

These are the protocol guarantees the lowered instruction streams must
provide for recovery to be possible; random transactions from hypothesis
drive them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen import CodeGenerator, SW_LOG_BYTES_PER_LINE, ThreadLayout
from repro.core.schemes import Scheme
from repro.isa.instructions import (
    Kind,
    alu,
    expand_lines,
    expand_log_blocks,
    load,
    sfence,
    store,
    tx_begin,
    tx_end,
)
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import InstructionTrace, OpTrace
from repro.lint.runner import lower_for_lint
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces


def make_layout():
    return ThreadLayout(
        sw_log_base=0x10_0000,
        sw_log_size=256 * SW_LOG_BYTES_PER_LINE,
        logflag_addr=0x20_0000,
        hw_log_base=0x30_0000,
        hw_log_size=1 << 20,
    )


@st.composite
def transactions(draw):
    """Random transactions over a small address pool."""
    pool = [0x1000 + 8 * i for i in range(64)]
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["r", "w", "c"]))
        if kind == "c":
            body.append(Op.compute(draw(st.integers(min_value=1, max_value=4))))
        elif kind == "r":
            body.append(Op.read(draw(st.sampled_from(pool)), chained=draw(st.booleans())))
        else:
            size = draw(st.sampled_from([8, 8, 8, 64]))
            addr = draw(st.sampled_from(pool))
            body.append(Op.write(addr & ~(size - 1), draw(st.integers(0, 99)), size=size))
    tx = TxRecord(txid=draw(st.integers(min_value=1, max_value=9)))
    tx.body = body
    tx.log_candidates = [(0x1000, 64 * 9)]  # covers the whole pool
    return tx


def lower(tx, scheme):
    generator = CodeGenerator(scheme, make_layout(), 0)
    trace = OpTrace(thread_id=0)
    trace.append(tx)
    return generator.lower_trace(trace)


@given(transactions())
@settings(max_examples=60, deadline=None)
def test_proteus_every_store_has_a_preceding_covering_flush(tx):
    out = lower(tx, Scheme.PROTEUS)
    flushed_blocks = set()
    for instr in out:
        if instr.kind is Kind.LOG_FLUSH:
            flushed_blocks.add(instr.addr)
        elif instr.kind is Kind.STORE and instr.txid:
            for block in expand_log_blocks(instr.addr, instr.size):
                assert block in flushed_blocks, (
                    f"store to {instr.addr:#x} not covered by an earlier flush"
                )


@given(transactions())
@settings(max_examples=60, deadline=None)
def test_proteus_flush_depends_on_its_log_load(tx):
    out = lower(tx, Scheme.PROTEUS)
    for index, instr in enumerate(out):
        if instr.kind is Kind.LOG_FLUSH:
            assert instr.dep > 0
            producer = out[index - instr.dep]
            assert producer.kind is Kind.LOG_LOAD
            assert producer.addr == instr.addr


@given(transactions())
@settings(max_examples=60, deadline=None)
def test_software_every_written_line_logged_before_any_data_store(tx):
    out = lower(tx, Scheme.PMEM)
    first_data_store = None
    logged_source_lines = set()
    for index, instr in enumerate(out):
        if instr.kind is Kind.LOAD and instr.tag == "log-copy":
            logged_source_lines.add(instr.line())
        if instr.kind is Kind.STORE and instr.tag == "data" and first_data_store is None:
            first_data_store = index
            for line in expand_lines(instr.addr, instr.size):
                assert line in logged_source_lines


@given(transactions())
@settings(max_examples=60, deadline=None)
def test_software_flag_protocol_order(tx):
    out = lower(tx, Scheme.PMEM)
    events = []
    for instr in out:
        if instr.kind is Kind.STORE and instr.tag == "logflag":
            events.append("set" if instr.value else "clear")
        elif instr.kind is Kind.STORE and instr.tag == "data":
            events.append("data")
        elif instr.kind is Kind.SFENCE:
            events.append("fence")
    assert events[0] != "data"                     # logging precedes data
    assert events.count("set") == 1
    assert events.count("clear") == 1
    set_at = events.index("set")
    clear_at = events.index("clear")
    data_positions = [i for i, e in enumerate(events) if e == "data"]
    for position in data_positions:
        assert set_at < position < clear_at        # data within the flag window
    assert "fence" in events[set_at + 1:events.index("clear")]


@given(transactions(), st.sampled_from(list(Scheme)))
@settings(max_examples=80, deadline=None)
def test_every_scheme_persists_every_written_line(tx, scheme):
    """Whatever the scheme, each line the transaction writes must be
    flushed (clwb/clflushopt) before the transaction's commit point."""
    out = lower(tx, scheme)
    flushed = set()
    for instr in out:
        if instr.kind in (Kind.CLWB, Kind.CLFLUSHOPT):
            flushed.add(instr.line())
    for line in tx.written_lines():
        assert line in flushed


#: Records a trace may already hold when a transaction is lowered into it.
PREFIX_RECORDS = [
    alu(),
    load(0x2000),
    load(0x2040, dep=1),
    store(0x2000, value=3),
    sfence(),
    tx_begin(9),
    tx_end(9),
]


@given(
    transactions(),
    st.lists(st.sampled_from(PREFIX_RECORDS), max_size=40),
    st.sampled_from(list(Scheme)),
)
@settings(max_examples=80, deadline=None)
def test_lowering_is_position_independent(tx, prefix, scheme):
    """Deps are backward distances, so a transaction's records do not
    depend on where it lands: lowering it after any prefix appends
    exactly the records that lowering it into an empty trace produces."""
    alone = InstructionTrace()
    CodeGenerator(scheme, make_layout(), 0).lower_transaction(tx, alone)
    after = InstructionTrace(instructions=list(prefix))
    CodeGenerator(scheme, make_layout(), 0).lower_transaction(tx, after)
    assert after.instructions[: len(prefix)] == prefix
    assert after.instructions[len(prefix) :] == alone.instructions


@given(transactions())
@settings(max_examples=40, deadline=None)
def test_traces_valid_for_all_schemes(tx):
    for scheme in Scheme:
        out = lower(tx, scheme)
        out.validate()  # dependence edges point backwards


def alu_producers_of_non_alus(trace):
    """Indices of non-ALU instructions whose producer is an ALU."""
    instructions = trace.instructions
    return [
        index
        for index, instr in enumerate(instructions)
        if instr.kind is not Kind.ALU
        and instr.dep
        and instructions[index - instr.dep].kind is Kind.ALU
    ]


# An ALU completion then starts only ALUs, so the order in which a
# completion fires among same-cycle events cannot be observed.  The
# think-chain window relies on it when it re-creates a parked core's
# head completion with a fresh sequence number.


@given(transactions(), st.sampled_from(list(Scheme)))
@settings(max_examples=80, deadline=None)
def test_no_lowered_non_alu_has_an_alu_producer(tx, scheme):
    assert alu_producers_of_non_alus(lower(tx, scheme)) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_no_workload_stream_gives_a_non_alu_an_alu_producer(scheme, workload):
    for op_trace in generate_traces(
        WORKLOADS[workload], threads=2, seed=7, init_ops=16, sim_ops=6
    ):
        trace, _ = lower_for_lint(op_trace, scheme)
        assert alu_producers_of_non_alus(trace) == []
