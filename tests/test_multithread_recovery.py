"""Recovery with multiple threads: each thread has its own log area and
at most one in-flight transaction (paper section 4.3)."""

import pytest

from repro.core.schemes import Scheme
from repro.persistence.crash import images_equal
from repro.workloads.base import generate_traces
from repro.workloads.queue_wl import QueueWorkload
from tests.crashes import Walk, phases_for, recovered


@pytest.fixture(scope="module")
def thread_traces():
    return generate_traces(QueueWorkload, threads=3, seed=17, init_ops=24, sim_ops=6)


def test_threads_recover_independently(thread_traces):
    """Crash each thread at a different phase; recovering each thread's
    log yields a per-thread transaction boundary.  Threads touch
    disjoint address spaces, so the global image is the union."""
    scheme = Scheme.PROTEUS
    recovered_union = {}
    expected_union = {}
    crash_plan = [(0, "committed"), (1, "in-flight"), (2, "flushed")]
    for trace, (k, phase) in zip(thread_traces, crash_plan):
        walk = Walk(trace, scheme)
        whole = recovered(walk.crash(k, phase))
        expected_k = k + 1 if phase == "committed" else k
        expected = walk.candidates[expected_k]
        assert images_equal(whole, expected)
        recovered_union.update(whole)
        expected_union.update(expected)
    assert images_equal(recovered_union, expected_union)


def test_thread_address_spaces_disjoint(thread_traces):
    footprints = []
    for trace in thread_traces:
        words = set()
        for tx in trace.transactions():
            for op in tx.writes():
                words.add(op.addr)
        footprints.append(words)
    for i, a in enumerate(footprints):
        for b in footprints[i + 1:]:
            assert not (a & b)


@pytest.mark.parametrize("scheme", [Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS])
def test_every_thread_every_phase(thread_traces, scheme):
    for trace in thread_traces:
        walk = Walk(trace, scheme)
        for phase in phases_for(scheme):
            expected_k = 3 if phase == "committed" else 2
            assert images_equal(
                recovered(walk.crash(2, phase)), walk.candidates[expected_k]
            )
