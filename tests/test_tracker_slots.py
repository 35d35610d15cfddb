"""The fault tracker's software-log slots are the slots codegen writes.

Under software logging the tracker maps every durable software-log line
back to the log entry it carries.  That map must name the slots the
lowered stream really stores to: each entry's payload slot sits one
line below the ``log-hdr`` store that names the entry's line.  Codegen
copies each candidate line once, so a transaction that lists a
candidate range twice must not shift any slot.
"""

import dataclasses

import pytest

from repro.core.codegen import CodeGenerator
from repro.core.schemes import Scheme
from repro.faults.tracker import ThreadFunctional
from repro.isa.instructions import CACHE_LINE
from repro.isa.ops import TxRecord
from repro.isa.trace import OpTrace
from repro.workloads import BENCHMARK_ORDER, WORKLOADS
from repro.workloads.base import generate_traces
from repro.workloads.heap import ThreadAddressSpace


def _repeat_first_range(trace: OpTrace) -> OpTrace:
    """``trace`` with its first transaction's first candidate range
    listed twice."""
    items = list(trace.items)
    index = next(
        i for i, item in enumerate(items)
        if isinstance(item, TxRecord) and item.log_candidates
    )
    tx = items[index]
    items[index] = dataclasses.replace(
        tx, log_candidates=[tx.log_candidates[0], *tx.log_candidates]
    )
    return dataclasses.replace(trace, items=items)


@pytest.mark.parametrize("repeated", [False, True], ids=["plain", "repeated-range"])
@pytest.mark.parametrize("workload", BENCHMARK_ORDER)
@pytest.mark.parametrize("scheme", [Scheme.PMEM, Scheme.PMEM_PCOMMIT], ids=str)
def test_tracker_slots_are_the_lowered_log_slots(scheme, workload, repeated):
    (trace,) = generate_traces(
        WORKLOADS[workload], threads=1, seed=7, init_ops=12, sim_ops=4
    )
    if repeated:
        trace = _repeat_first_range(trace)
    model = ThreadFunctional(trace, scheme)
    layout = ThreadAddressSpace(trace.thread_id).layout()
    lowered = CodeGenerator(scheme, layout, trace.thread_id).lower_trace(trace)
    headers = [instr for instr in lowered if instr.tag == "log-hdr"]

    slots = [record[0] for records in model.sw_slots for record in records]
    assert slots == [header.addr - CACHE_LINE for header in headers]
    # Slot i of a transaction carries its log entry i: the line the
    # header names is that entry's block.
    assert [entry.block for tx in model.txs for entry in tx.log_entries] == [
        header.value for header in headers
    ]
