"""The fault tracker's software-log slots are the slots codegen writes.

Under software logging the tracker reads every durable software-log
line through the stream model of the thread's lowered stream, so its
stream must be the one the machine runs: each entry's payload slot sits
one line below the ``log-hdr`` store that names the entry's line, and
the slots follow each other from the log base.  Codegen copies each
candidate line once, so a transaction that lists a candidate range
twice must not shift any slot.
"""

import dataclasses

import pytest

from repro.core.codegen import SW_LOG_BYTES_PER_LINE, CodeGenerator
from repro.core.schemes import Scheme
from repro.faults.tracker import ThreadStream
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
    model = ThreadStream(trace, scheme)
    layout = ThreadAddressSpace(trace.thread_id).layout()
    lowered = CodeGenerator(scheme, layout, trace.thread_id).lower_trace(trace)
    assert model.trace.instructions == lowered.instructions
    headers = [instr for instr in lowered if instr.tag == "log-hdr"]

    slots = [header.addr - CACHE_LINE for header in headers]
    assert slots == [
        layout.sw_log_base + i * SW_LOG_BYTES_PER_LINE for i in range(len(slots))
    ]
    # A transaction's slots name distinct lines: each candidate line is
    # copied once.
    for first, last in lowered.transactions:
        named = [
            instr.value
            for instr in lowered.instructions[first:last + 1]
            if instr.tag == "log-hdr"
        ]
        assert len(named) == len(set(named))
