"""Tests for the context-switch path (paper section 4.4).

``log-save`` spills the logging registers, clears the LLT (so another
thread cannot consume stale filter state), and forces the thread's
pending LPQ entries out to NVM — conservatively correct because the
thread may be descheduled indefinitely.
"""

from array import array
from bisect import bisect_left

from repro.core.schemes import Scheme
from repro.isa.instructions import Kind, log_save
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import Simulator
from tests.test_run_walk import check_run_index


def tx(txid, addrs):
    record = TxRecord(txid=txid)
    for addr in addrs:
        record.body.append(Op.write(addr, txid))
    record.log_candidates = [(addr, 64) for addr in addrs]
    return record


def build_trace_with_switch():
    """Two committed transactions with a context switch between them."""
    trace = OpTrace(thread_id=0)
    trace.append(tx(1, [0x1000, 0x1040]))
    trace.append(tx(2, [0x2000]))
    return trace


def run_with_log_save(trace):
    config = fast_nvm_config(cores=1)
    sim = Simulator(config, Scheme.PROTEUS, [trace])
    # Inject a log-save after the first transaction's tx-end.
    instr_trace = sim.cores[0].trace
    end_index = next(
        i for i, instr in enumerate(instr_trace)
        if instr.kind is Kind.TX_END and instr.txid == 1
    )
    # Deps are backward distances and no dependence spans a tx-end, so
    # the insertion leaves every later dep valid; the later transaction's
    # bounds and run starts move with it, and the log-save starts a run.
    instr_trace.instructions.insert(end_index + 1, log_save())
    instr_trace.transactions[1:] = [
        (first + 1, last + 1) for first, last in instr_trace.transactions[1:]
    ]
    runs = instr_trace.runs
    at = bisect_left(runs, end_index + 1)
    runs[at:] = array("l", [end_index + 1] + [start + 1 for start in runs[at:]])
    check_run_index(instr_trace)
    assert [(instr_trace[first].kind, instr_trace[last].kind)
            for first, last in instr_trace.transactions] == [(Kind.TX_BEGIN, Kind.TX_END)] * 2
    result = sim.run()
    return sim, result


def test_log_save_flushes_thread_logs():
    sim, result = run_with_log_save(build_trace_with_switch())
    assert result.stats.get("proteus.log_saves") == 1
    # The first transaction's sticky end mark was forced to NVM by the
    # switch instead of lingering in the LPQ.
    assert result.stats.get("nvm.write.log") >= 1
    assert result.stats.get("tx.committed") == 2


def test_log_save_clears_llt():
    sim, result = run_with_log_save(build_trace_with_switch())
    adapter = sim.cores[0].adapter
    assert adapter.llt.occupancy() == 0
    assert adapter.lrs.available() == adapter.lrs.count


def test_log_save_waits_for_pending_flushes():
    """log-save has fence semantics against the LogQ."""
    trace = build_trace_with_switch()
    sim, result = run_with_log_save(trace)
    assert sim.cores[0].adapter.logq.is_empty()


def test_recovery_across_context_switch_duplicates():
    """Rescheduling may re-log the same data; recovery uses the earliest
    entry, so duplicates are harmless (paper section 4.4)."""
    from repro.persistence.crash import images_equal
    from tests.crashes import Walk, recovered

    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 5}
    record = TxRecord(txid=1)
    record.body = [Op.write(0x1000, 6), Op.write(0x1000, 7)]
    record.log_candidates = [(0x1000, 64)]
    trace.append(record)
    # The stream logs the block once per store, as a switch clearing
    # the LLT mid-transaction would make the hardware do.
    walk = Walk(trace, Scheme.PROTEUS)
    image = walk.crash(0, "flushed")
    assert len(image.log_entries) == 2
    whole = recovered(image)
    assert whole[0x1000] == 5  # earliest pre-image wins
    assert images_equal(whole, walk.candidates[0])
