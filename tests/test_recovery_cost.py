"""Tests for recovery-cost accounting, on stream-model crash images."""

import pytest

from repro.core.schemes import Scheme
from repro.persistence.crash import CrashImage
from repro.persistence.recovery import RecoveryError, recovery_cost
from repro.workloads.queue_wl import QueueWorkload
from tests.crashes import Walk


@pytest.fixture(scope="module")
def trace():
    return QueueWorkload(thread_id=0, seed=29, init_ops=32, sim_ops=10).generate()


def test_committed_crash_costs_almost_nothing(trace):
    image = Walk(trace, Scheme.PROTEUS).crash(4, "committed")
    cost = recovery_cost(image)
    assert cost["data_writes"] == 0
    assert cost["flag_writes"] == 0


def test_inflight_cost_proportional_to_log(trace):
    walk = Walk(trace, Scheme.PROTEUS)
    images = [walk.crash(k, "flushed") for k in range(walk.transactions)]
    image = max(images, key=lambda image: len(image.log_entries))
    cost = recovery_cost(image)
    distinct_blocks = {entry.block for entry in image.log_entries}
    assert cost["data_writes"] == len(distinct_blocks)
    assert cost["log_reads"] >= len(image.log_entries)


def test_software_cost_includes_flag_handling(trace):
    image = Walk(trace, Scheme.PMEM).crash(3, "flushed")
    cost = recovery_cost(image)
    assert cost["flag_writes"] == 1
    assert cost["data_writes"] == len(
        [entry for entry in image.log_entries if entry.txid == image.logflag]
    ) > 0


def test_clean_software_crash_reads_only_flag(trace):
    image = Walk(trace, Scheme.PMEM).crash(3, "before")
    cost = recovery_cost(image)
    assert cost == {"log_reads": 1, "data_writes": 0, "flag_writes": 0}


def test_duplicate_blocks_written_once():
    """Even with duplicate (re-logged) entries, each block is restored
    exactly once — recovery cost is bounded by distinct blocks."""
    from repro.isa.ops import Op, TxRecord
    from repro.isa.trace import OpTrace

    small = OpTrace(thread_id=0)
    small.initial_image = {0x1000: 1, 0x1020: 2, 0x1040: 3}
    tx = TxRecord(txid=1)
    tx.body = [Op.write(0x1000, 9), Op.write(0x1020, 9), Op.write(0x1040, 9),
               Op.write(0x1000, 10)]
    tx.log_candidates = [(0x1000, 128)]
    small.append(tx)
    image = Walk(small, Scheme.PROTEUS).crash(0, "flushed")
    assert len(image.log_entries) == 4  # one duplicate
    assert recovery_cost(image)["data_writes"] == 3


def test_unsafe_scheme_rejected():
    with pytest.raises(RecoveryError):
        recovery_cost(CrashImage(Scheme.PMEM_NOLOG, {}, []))
