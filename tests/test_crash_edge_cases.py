"""Edge cases of crash images and recovery on the stream model.

The last tests build crash states that break the log-before-data
invariant on purpose, by choosing line versions no frontier persist-verify
enumerates may expose, and show that recovery checking catches them.
"""

import pytest

from repro.core.schemes import Scheme
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.persistence.crash import images_equal
from repro.persistence.image import build_image, stream_view
from repro.persistence.recovery import RecoveryError, verify_atomicity
from repro.verify.frontier import iter_exhaustive
from repro.workloads import LinkedListWorkload, QueueWorkload
from tests.crashes import Walk, recovered


def simple_trace(num_txs=3):
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1}
    for txid in range(1, num_txs + 1):
        tx = TxRecord(txid=txid)
        tx.body = [Op.write(0x1000, 100 + txid)]
        tx.log_candidates = [(0x1000, 64)]
        trace.append(tx)
    return trace


def test_crash_at_first_transaction():
    walk = Walk(simple_trace(), Scheme.PMEM)
    assert recovered(walk.crash(0, "flushed"))[0x1000] == 1  # rolled back


def test_crash_at_last_transaction_committed():
    walk = Walk(simple_trace(3), Scheme.ATOM)
    assert recovered(walk.crash(2, "committed"))[0x1000] == 103


def test_read_only_transaction_crashes_cleanly():
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 7}
    tx = TxRecord(txid=1)
    tx.body = [Op.read(0x1000), Op.compute(3)]
    trace.append(tx)
    walk = Walk(trace, Scheme.PROTEUS)
    for phase in ("in-flight", "flushed", "committed"):
        image = walk.crash(0, phase)
        assert image.log_entries == []
        assert recovered(image)[0x1000] == 7


def test_stale_log_entries_of_older_tx_ignored():
    """Recovery only undoes the in-flight txid; a crash image holding a
    (stale, committed) older transaction's entries must not apply them."""
    walk = Walk(simple_trace(3), Scheme.PROTEUS)
    image = walk.crash(2, "flushed")
    # Contaminate the crash image with tx 1's (stale) entries.
    stale = walk.crash(0, "flushed").log_entries
    assert stale and all(entry.txid == 1 for entry in stale)
    image.log_entries = stale + image.log_entries
    assert images_equal(recovered(image), walk.candidates[2])


def test_empty_log_durable_set_means_nothing_logged():
    walk = Walk(simple_trace(), Scheme.ATOM)
    image = walk.crash(1, "in-flight", log=())
    assert image.log_entries == []
    assert images_equal(recovered(image), walk.candidates[1])


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


def _violating_hw_point(walk):
    """First transaction that logs and writes data: durable data with
    *no* durable log is then a guaranteed violation."""
    for k in range(walk.transactions):
        if walk.written_lines(k) and walk.crash(k, "flushed").log_entries:
            return k
    raise AssertionError("workload produced no logged transaction")


def test_enforced_invariant_rejects_bad_hw_crash_point():
    """persist-verify never enumerates data durable ahead of its log:
    every frontier's log prefix covers its data versions' needs."""
    walk = Walk(_trace(), Scheme.PROTEUS)
    k = _violating_hw_point(walk)
    state = walk.state(walk.position(k, "flushed"))
    view = stream_view(state)
    newest = {history.line: history.executed for history in view.free}
    need = view.entry_floor(newest)
    assert need is not None and need > view.e_lo
    for frontier in iter_exhaustive(state):
        chosen = frontier.chosen()
        for history in view.free_data:
            assert frontier.entry_count >= history.needs[chosen[history.line]]


def test_unenforced_hw_violation_is_caught_by_recovery_check():
    walk = Walk(_trace(), Scheme.PROTEUS)
    k = _violating_hw_point(walk)
    image = walk.crash(k, "in-flight", data=walk.written_lines(k), log=())
    whole = recovered(image)
    # With the log lost, recovery cannot roll the partial data back, so
    # the recovered image matches no transaction boundary.
    if not any(
        images_equal(whole, candidate)
        for candidate in (walk.candidates[k], walk.candidates[k + 1])
    ):
        with pytest.raises(RecoveryError):
            verify_atomicity(whole, walk.candidates)


def test_unenforced_sw_violation_is_caught_by_recovery_check():
    walk = Walk(_big_tx_trace(), Scheme.PMEM)
    caught = 0
    for k in range(walk.transactions):
        lines = walk.written_lines(k)
        if len(lines) < 2:
            continue
        # Flag back at its clear version, log absent, but half the data
        # lines durable: the Figure-2 fences forbid this state, and
        # recovery checking must catch it.
        state = walk.state(walk.position(k, "in-flight"))
        flag = stream_view(state).flag
        moved = {flag.line: flag.floor - 1}
        for line in lines[: len(lines) // 2]:
            moved[line] = state.lines[line].executed
        image = build_image(state, moved, [])
        assert image.logflag == 0
        try:
            verify_atomicity(recovered(image), walk.candidates)
        except RecoveryError:
            caught += 1
    assert caught >= 1
