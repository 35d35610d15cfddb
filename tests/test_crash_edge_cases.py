"""Edge-case tests for the crash layer's error handling and boundaries.

The last three tests build crash states that violate the log-before-data
invariant on purpose (``enforce_invariant=False``) and show that
recovery checking really does catch them.
"""

import pytest

from repro.core.schemes import Scheme
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.persistence.crash import (
    CrashImage,
    CrashPoint,
    InvariantViolation,
    Phase,
    crash_image,
)
from repro.persistence.model import build_functional_txs, image_after, images_equal
from repro.persistence.recovery import RecoveryError, recover, verify_atomicity
from repro.workloads import LinkedListWorkload, QueueWorkload


def simple_trace(num_txs=3):
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1}
    for txid in range(1, num_txs + 1):
        tx = TxRecord(txid=txid)
        tx.body = [Op.write(0x1000, 100 + txid)]
        tx.log_candidates = [(0x1000, 64)]
        trace.append(tx)
    return trace


def test_tx_index_bounds():
    initial, txs = build_functional_txs(simple_trace(), Scheme.PROTEUS)
    with pytest.raises(ValueError):
        crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(-1, Phase.BEFORE))
    with pytest.raises(ValueError):
        crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(3, Phase.BEFORE))


def test_software_phases_rejected_for_hardware():
    initial, txs = build_functional_txs(simple_trace(), Scheme.PROTEUS)
    for phase in (Phase.LOGGING, Phase.FLAGGED):
        with pytest.raises(ValueError):
            crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(0, phase))


def test_out_of_range_subset_indices_ignored():
    initial, txs = build_functional_txs(simple_trace(), Scheme.PROTEUS)
    crash = CrashPoint(
        1, Phase.IN_FLIGHT,
        log_durable=frozenset({0, 99}),   # 99 does not exist
        data_durable=frozenset({0, 42}),  # 42 does not exist
    )
    image = crash_image(initial, txs, Scheme.PROTEUS, crash)
    recovered = recover(image)
    assert images_equal(recovered, image_after(initial, txs, 1))


def test_crash_at_first_transaction():
    initial, txs = build_functional_txs(simple_trace(), Scheme.PMEM)
    image = crash_image(initial, txs, Scheme.PMEM, CrashPoint(0, Phase.FLUSHED))
    recovered = recover(image)
    assert recovered[0x1000] == 1  # rolled back to the initial value


def test_crash_at_last_transaction_committed():
    initial, txs = build_functional_txs(simple_trace(3), Scheme.ATOM)
    image = crash_image(initial, txs, Scheme.ATOM, CrashPoint(2, Phase.COMMITTED))
    recovered = recover(image)
    assert recovered[0x1000] == 103


def test_read_only_transaction_crashes_cleanly():
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 7}
    tx = TxRecord(txid=1)
    tx.body = [Op.read(0x1000), Op.compute(3)]
    trace.append(tx)
    initial, txs = build_functional_txs(trace, Scheme.PROTEUS)
    assert txs[0].log_entries == []
    for phase in (Phase.IN_FLIGHT, Phase.FLUSHED, Phase.COMMITTED):
        image = crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(0, phase))
        recovered = recover(image)
        assert recovered[0x1000] == 7


def test_stale_log_entries_of_older_tx_ignored():
    """Recovery only undoes the in-flight txid; a crash image holding a
    (stale, committed) older transaction's entries must not apply them."""
    initial, txs = build_functional_txs(simple_trace(3), Scheme.PROTEUS)
    image = crash_image(initial, txs, Scheme.PROTEUS, CrashPoint(2, Phase.FLUSHED))
    # Contaminate the crash image with tx 1's (stale) entries.
    image.log_entries = txs[0].log_entries + image.log_entries
    recovered = recover(image)
    assert images_equal(recovered, image_after(initial, txs, 2))


def test_empty_log_durable_set_means_nothing_logged():
    initial, txs = build_functional_txs(simple_trace(), Scheme.ATOM)
    crash = CrashPoint(1, Phase.IN_FLIGHT, log_durable=frozenset())
    image = crash_image(initial, txs, Scheme.ATOM, crash)
    assert image.log_entries == []
    recovered = recover(image)
    assert images_equal(recovered, image_after(initial, txs, 1))


# -- deliberate log-before-data violations -----------------------------------


def _trace(workload_cls=QueueWorkload, sim_ops=3):
    workload = workload_cls(thread_id=0, seed=5, init_ops=16, sim_ops=sim_ops)
    return workload.generate()


def _big_tx_trace():
    """Multi-line, multi-entry transactions (4 lines / 5+ log entries)."""
    workload = LinkedListWorkload(
        thread_id=0, seed=5, init_ops=6, sim_ops=3, elements_per_node=32
    )
    return workload.generate()


def _violating_hw_point(txs):
    """First (tx, data line) whose covering log entry exists — durable
    data with *no* durable log is then a guaranteed violation."""
    for k, tx in enumerate(txs):
        if tx.log_entries and tx.written_lines:
            return k, tx
    raise AssertionError("workload produced no logged transaction")


def test_enforced_invariant_rejects_bad_hw_crash_point():
    trace = _trace()
    initial, txs = build_functional_txs(trace, Scheme.PROTEUS)
    k, tx = _violating_hw_point(txs)
    crash = CrashPoint(
        k,
        Phase.IN_FLIGHT,
        log_durable=frozenset(),
        data_durable=frozenset(range(len(tx.written_lines))),
    )
    with pytest.raises(InvariantViolation):
        crash_image(initial, txs, Scheme.PROTEUS, crash)


def test_unenforced_hw_violation_is_caught_by_recovery_check():
    trace = _trace()
    initial, txs = build_functional_txs(trace, Scheme.PROTEUS)
    k, tx = _violating_hw_point(txs)
    candidates = [image_after(initial, txs, i) for i in range(len(txs) + 1)]
    crash = CrashPoint(
        k,
        Phase.IN_FLIGHT,
        log_durable=frozenset(),
        data_durable=frozenset(range(len(tx.written_lines))),
    )
    image = crash_image(initial, txs, Scheme.PROTEUS, crash, enforce_invariant=False)
    recovered = recover(image)
    # With the log lost, recovery cannot roll the partial data back, so
    # the recovered image matches no transaction boundary.
    if not any(
        recovered == candidate for candidate in (candidates[k], candidates[k + 1])
    ):
        with pytest.raises(RecoveryError):
            verify_atomicity(recovered, candidates)


def test_unenforced_sw_violation_is_caught_by_recovery_check():
    trace = _big_tx_trace()
    initial, txs = build_functional_txs(trace, Scheme.PMEM)
    candidates = [image_after(initial, txs, i) for i in range(len(txs) + 1)]
    caught = 0
    for k, tx in enumerate(txs):
        if len(tx.written_lines) < 2:
            continue
        # Flag clear, log absent, but half the data lines durable: the
        # Figure-2 fences forbid this; from_machine_state must refuse it
        # when enforcing and recovery checking must catch it otherwise.
        half = frozenset(tx.written_lines[: len(tx.written_lines) // 2])
        with pytest.raises(InvariantViolation):
            CrashImage.from_machine_state(
                Scheme.PMEM,
                initial,
                txs,
                committed=k,
                inflight_active=True,
                durable_data_lines=half,
                logflag=0,
                sw_log_entries=[],
            )
        image = CrashImage.from_machine_state(
            Scheme.PMEM,
            initial,
            txs,
            committed=k,
            inflight_active=True,
            durable_data_lines=half,
            logflag=0,
            sw_log_entries=[],
            enforce_invariant=False,
        )
        recovered = recover(image)
        try:
            verify_atomicity(recovered, candidates)
        except RecoveryError:
            caught += 1
    assert caught >= 1
