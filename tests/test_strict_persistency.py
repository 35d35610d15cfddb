"""Tests for the strict-persistency ablation scheme (section 2.1)."""

import pytest

from repro.core.codegen import CodeGenerator
from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import run_trace
from repro.workloads.base import generate_traces
from repro.workloads.heap import ThreadAddressSpace
from repro.workloads.queue_wl import QueueWorkload


def lower_strict(tx):
    layout = ThreadAddressSpace(0).layout()
    generator = CodeGenerator(Scheme.PMEM_STRICT, layout, 0)
    trace = OpTrace(thread_id=0)
    trace.append(tx)
    return generator.lower_trace(trace)


def test_every_store_followed_by_clwb_and_sfence():
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 1), Op.write(0x2000, 2)]
    tx.log_candidates = [(0x1000, 64), (0x2000, 64)]
    out = lower_strict(tx)
    kinds = [instr.kind for instr in out]
    assert kinds == [
        Kind.STORE, Kind.CLWB, Kind.SFENCE,
        Kind.STORE, Kind.CLWB, Kind.SFENCE,
    ]


def test_no_logging_instructions():
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 1)]
    tx.log_candidates = [(0x1000, 64)]
    out = lower_strict(tx)
    assert out.count(Kind.LOG_LOAD) == 0
    assert out.count(Kind.TX_BEGIN) == 0


def test_strict_is_the_slowest_data_persistence():
    """Strict ordering costs more than epoch-style (nolog) persistence —
    the reason relaxed persistency models exist."""
    traces = generate_traces(QueueWorkload, threads=1, seed=41, init_ops=64, sim_ops=10)
    config = fast_nvm_config(cores=1)
    strict = run_trace(traces, Scheme.PMEM_STRICT, config)
    epochs = run_trace(traces, Scheme.PMEM_NOLOG, config)
    assert strict.cycles > epochs.cycles
    # Same data reaches NVM either way (maybe more under strict: no
    # intra-transaction coalescing of repeated stores to one line).
    assert strict.nvm_writes >= epochs.nvm_writes


def test_strict_not_failure_safe():
    assert not Scheme.PMEM_STRICT.failure_safe
    from repro.persistence.crash import CrashImage
    from repro.persistence.recovery import RecoveryError, recover

    with pytest.raises(RecoveryError):
        recover(CrashImage(Scheme.PMEM_STRICT, {}, []))


def test_strict_preserves_store_order_to_wpq():
    """Persists must reach the persistency domain in program order."""
    from repro.sim.simulator import Simulator

    tx = TxRecord(txid=1)
    addrs = [0x1000, 0x9000, 0x2000, 0x8000]
    tx.body = [Op.write(addr, i) for i, addr in enumerate(addrs)]
    tx.log_candidates = [(addr, 64) for addr in addrs]
    trace = OpTrace(thread_id=0)
    trace.append(tx)
    sim = Simulator(fast_nvm_config(cores=1), Scheme.PMEM_STRICT, [trace])
    order = []
    original = sim.memctrl.write

    def spy(addr, category="data", thread_id=-1, txid=0, on_durable=None):
        order.append(addr & ~63)
        return original(addr, category=category, thread_id=thread_id,
                        txid=txid, on_durable=on_durable)

    sim.memctrl.write = spy
    sim.run()
    flushed = [addr for addr in order if addr in {a & ~63 for a in addrs}]
    assert flushed == [addr & ~63 for addr in addrs]


def test_strict_crash_states_can_be_torn():
    """Strict persistency orders persists but provides no atomicity: a
    crash between two stores of one transaction leaves a consistent
    *prefix*, which is still a torn transaction."""
    from repro.persistence.crash import images_equal
    from repro.persistence.image import build_image
    from tests.crashes import Walk, flattened

    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1, 0x2000: 2}
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 10), Op.write(0x2000, 20)]
    tx.log_candidates = [(0x1000, 64), (0x2000, 64)]
    trace.append(tx)
    walk = Walk(trace, Scheme.PMEM_STRICT)
    # First store persisted (store; clwb; sfence), second not issued yet.
    state = walk.state(3)
    assert not state.entries  # no log
    image = flattened(build_image(state, {}, []))
    before, after = walk.candidates
    assert not images_equal(image, before)
    assert not images_equal(image, after)
    assert image[0x1000] == 10 and image[0x2000] == 2
