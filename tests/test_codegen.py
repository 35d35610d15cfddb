"""Unit tests for per-scheme code generation."""

import pytest

from repro.core.codegen import SW_LOG_BYTES_PER_LINE, CodeGenerator, ThreadLayout
from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace


def make_layout():
    return ThreadLayout(
        sw_log_base=0x10000,
        sw_log_size=64 * SW_LOG_BYTES_PER_LINE,
        logflag_addr=0x20000,
        hw_log_base=0x30000,
        hw_log_size=64 * 1024,
    )


def make_tx(txid=1):
    tx = TxRecord(txid=txid)
    tx.body = [
        Op.read(0x1000),
        Op.write(0x1000, 5),
        Op.write(0x1008, 6),
        Op.write(0x1040, 7),
    ]
    tx.log_candidates = [(0x1000, 64), (0x1040, 64)]
    return tx


def lower(scheme, tx=None):
    generator = CodeGenerator(scheme, make_layout(), thread_id=0)
    trace = OpTrace(thread_id=0)
    trace.append(tx or make_tx())
    return generator.lower_trace(trace)


def test_nolog_shape():
    out = lower(Scheme.PMEM_NOLOG)
    assert out.count(Kind.STORE) == 3
    assert out.count(Kind.CLWB) == 2          # two written lines
    assert out.count(Kind.SFENCE) == 1
    assert out.count(Kind.PCOMMIT) == 0
    assert out.count(Kind.LOG_LOAD) == 0
    assert out.count(Kind.TX_BEGIN) == 0


def test_software_logging_four_steps():
    out = lower(Scheme.PMEM)
    # Four fences, one per Figure-2 step.
    assert out.count(Kind.SFENCE) == 4
    # Two candidate lines copied: 8 loads each.
    log_loads = [i for i in out if i.kind is Kind.LOAD and i.tag == "log-copy"]
    assert len(log_loads) == 16
    # clwb: 2 log lines per candidate + 2 data lines + 2 logflag.
    assert out.count(Kind.CLWB) == 2 * 2 + 2 + 2
    # logFlag set and cleared.
    flag_stores = [i for i in out if i.kind is Kind.STORE and i.tag == "logflag"]
    assert len(flag_stores) == 2
    assert flag_stores[0].value == 1
    assert flag_stores[1].value == 0


def test_pcommit_variant_adds_pcommits():
    out = lower(Scheme.PMEM_PCOMMIT)
    assert out.count(Kind.PCOMMIT) == out.count(Kind.SFENCE) == 4


def test_software_log_ordering():
    """Log copy stores come before the logFlag store, which comes before
    the first data store."""
    out = lower(Scheme.PMEM)
    flag_set = next(
        n for n, i in enumerate(out) if i.kind is Kind.STORE and i.tag == "logflag"
    )
    first_data = next(
        n for n, i in enumerate(out) if i.kind is Kind.STORE and i.tag == "data"
    )
    last_log_copy = max(
        n for n, i in enumerate(out) if i.kind is Kind.STORE and i.tag == "log-copy"
    )
    assert last_log_copy < flag_set < first_data


def test_atom_emits_plain_body_with_tx_marks():
    out = lower(Scheme.ATOM)
    assert out.count(Kind.TX_BEGIN) == 1
    assert out.count(Kind.TX_END) == 1
    assert out.count(Kind.STORE) == 3
    assert out.count(Kind.LOG_LOAD) == 0
    assert out.count(Kind.SFENCE) == 0
    assert out[0].kind is Kind.TX_BEGIN
    assert out[len(out) - 1].kind is Kind.TX_END


def test_proteus_expands_stores_into_triples():
    out = lower(Scheme.PROTEUS)
    # Every 8 B store gets exactly one log-load/log-flush pair.
    assert out.count(Kind.LOG_LOAD) == 3
    assert out.count(Kind.LOG_FLUSH) == 3
    assert out.count(Kind.STORE) == 3
    # Pair ordering: log-load, log-flush (dep on the load one back), then store.
    instrs = list(out)
    for n, instr in enumerate(instrs):
        if instr.kind is Kind.LOG_FLUSH:
            assert instrs[n - 1].kind is Kind.LOG_LOAD
            assert instr.dep == 1
            assert instrs[n + 1].kind is Kind.STORE


def test_proteus_wide_store_gets_pair_per_block():
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 9, size=64)]  # spans two 32 B blocks
    tx.log_candidates = [(0x1000, 64)]
    out = lower(Scheme.PROTEUS, tx)
    assert out.count(Kind.LOG_LOAD) == 2
    assert out.count(Kind.LOG_FLUSH) == 2


def test_transactional_txid_propagation():
    out = lower(Scheme.PROTEUS)
    for instr in out:
        if instr.kind in (Kind.LOG_LOAD, Kind.LOG_FLUSH, Kind.STORE):
            assert instr.txid == 1


def test_chained_reads_lowered_with_dependence():
    tx = TxRecord(txid=1)
    tx.body = [
        Op.read(0x1000),
        Op.read(0x2000, chained=True),
        Op.read(0x3000, chained=True),
        Op.write(0x1000, 1),
    ]
    tx.log_candidates = [(0x1000, 64)]
    out = lower(Scheme.PMEM_NOLOG, tx)
    loads = [(n, i) for n, i in enumerate(out) if i.kind is Kind.LOAD]
    assert loads[0][1].dep == 0
    assert loads[1][0] - loads[1][1].dep == loads[0][0]
    assert loads[2][0] - loads[2][1].dep == loads[1][0]


def test_compute_lowered_as_dependent_chain():
    trace = OpTrace(thread_id=0)
    trace.append(Op.compute(4, latency=3))
    generator = CodeGenerator(Scheme.PMEM_NOLOG, make_layout())
    out = generator.lower_trace(trace)
    alus = [(n, i) for n, i in enumerate(out) if i.kind is Kind.ALU]
    assert len(alus) == 4
    assert alus[0][1].dep == 0
    for (prev_n, _), (n, instr) in zip(alus, alus[1:]):
        assert n - instr.dep == prev_n
        assert instr.latency == 3
    # Every link after the head is one shared record.
    assert all(instr is alus[1][1] for _, instr in alus[1:])


def test_sw_log_cursor_wraps():
    generator = CodeGenerator(Scheme.PMEM, make_layout())
    trace = OpTrace(thread_id=0)
    for txid in range(1, 80):  # 2 lines per tx > 64-entry log area
        tx = TxRecord(txid=txid)
        tx.body = [Op.write(0x1000, txid)]
        tx.log_candidates = [(0x1000, 64)]
        trace.append(tx)
    out = generator.lower_trace(trace)
    layout = make_layout()
    for instr in out:
        if instr.tag in ("log-copy", "log-hdr") and instr.kind is Kind.STORE:
            assert layout.sw_log_base <= instr.addr < layout.sw_log_base + layout.sw_log_size


def test_layout_validation():
    layout = make_layout()
    layout.sw_log_size = 100
    with pytest.raises(ValueError):
        CodeGenerator(Scheme.PMEM, layout)
