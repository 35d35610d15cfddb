"""Crash and recovery across schemes and protocol phases.

Crash images come from the stream model (:mod:`tests.crashes`): each
phase of a transaction is a position in its lowered stream, and the
lines sit at versions the persistency model allows there.
"""

import pytest

from repro.core.schemes import Scheme
from repro.persistence.crash import CrashImage, images_equal
from repro.persistence.image import build_image, stream_view
from repro.persistence.recovery import RecoveryError, recover, verify_atomicity
from repro.workloads.queue_wl import QueueWorkload
from tests.crashes import Walk, flattened, phases_for, recovered

SAFE_SCHEMES = [Scheme.PMEM, Scheme.PMEM_PCOMMIT, Scheme.ATOM,
                Scheme.PROTEUS, Scheme.PROTEUS_NOLWR]


@pytest.fixture(scope="module")
def queue_setup():
    wl = QueueWorkload(thread_id=0, seed=23, init_ops=40, sim_ops=15)
    return wl.generate()


@pytest.mark.parametrize("scheme", SAFE_SCHEMES)
def test_recovery_restores_whole_transactions(queue_setup, scheme):
    walk = Walk(queue_setup, scheme)
    for k in range(walk.transactions):
        for phase in phases_for(scheme):
            expected_k = k + 1 if phase == "committed" else k
            assert images_equal(
                recovered(walk.crash(k, phase)), walk.candidates[expected_k]
            ), (scheme, k, phase)


@pytest.mark.parametrize("scheme", [Scheme.PROTEUS, Scheme.ATOM])
def test_partial_data_durability_recovers(queue_setup, scheme):
    """Only some written lines persisted (cache evictions) — undo works."""
    walk = Walk(queue_setup, scheme)
    k = walk.transactions // 2
    lines = walk.written_lines(k)
    for subset_mask in range(1 << min(len(lines), 4)):
        data = {line for i, line in enumerate(lines) if subset_mask & (1 << i)}
        image = walk.crash(k, "in-flight", data=data)
        assert images_equal(recovered(image), walk.candidates[k])


def test_atomicity_verifier(queue_setup):
    walk = Walk(queue_setup, Scheme.PROTEUS)
    flushed = recovered(walk.crash(4, "flushed"))
    assert verify_atomicity(flushed, walk.candidates) == 4
    committed = recovered(walk.crash(4, "committed"))
    assert verify_atomicity(committed, walk.candidates) == 5


def test_invariant_violation_detected(queue_setup):
    """A data version no durable log prefix covers is unreachable: the
    log-before-data edge limits the versions a crash may expose."""
    walk = Walk(queue_setup, Scheme.PROTEUS)
    state = walk.state(walk.position(1, "flushed"))
    view = stream_view(state)
    chosen = {history.line: history.executed for history in view.free}
    assert view.entry_floor(chosen) is not None
    needs = max(history.needs[history.executed] for history in view.free_data)
    assert needs > view.e_lo  # the newest data needs log entries past the fence


def test_violating_the_invariant_breaks_atomicity(queue_setup):
    """Demonstrate *why* the LogQ ordering rule exists: skip it and
    recovery no longer lands on a transaction boundary."""
    walk = Walk(queue_setup, Scheme.PROTEUS)
    for k in range(walk.transactions):
        lines = walk.written_lines(k)
        if not lines:
            continue
        image = walk.crash(k, "in-flight", data=lines[:1], log=())
        try:
            verify_atomicity(recovered(image), walk.candidates)
        except RecoveryError:
            return  # atomicity violated, as expected
    pytest.fail("expected at least one inconsistent crash state")


def test_nolog_cannot_recover(queue_setup):
    walk = Walk(queue_setup, Scheme.PMEM_NOLOG)
    state = walk.state(walk.position(2, "before") + 1)
    image = build_image(state, {}, [])
    with pytest.raises(RecoveryError):
        recover(image)


def test_sw_partial_log_before_flag_is_harmless(queue_setup):
    """Crash during step 1: the flag is clear, garbage log is ignored."""
    walk = Walk(queue_setup, Scheme.PMEM)
    state = walk.state(walk.position(3, "logging"))
    for line in (None, *sorted(h.line for h in stream_view(state).free)):
        moved = {} if line is None else {line: state.lines[line].executed}
        image = build_image(state, moved, [])
        assert image.logflag == 0
        assert images_equal(recovered(image), walk.candidates[3])


def test_duplicate_entries_earliest_wins():
    """A block logged twice in one transaction (after an LLT eviction,
    or once per store as the stream lowers it) carries intra-transaction
    values in its later entry; recovery must prefer the earliest entry
    (paper section 4.2)."""
    from repro.isa.ops import Op, TxRecord
    from repro.isa.trace import OpTrace

    trace = OpTrace(thread_id=0)
    base = 0x1000
    trace.initial_image = {base: 1, base + 0x20: 2, base + 0x40: 3}
    tx = TxRecord(txid=1)
    tx.body = [
        Op.write(base, 100),
        Op.write(base + 0x20, 101),
        Op.write(base + 0x40, 102),
        Op.write(base, 103),
    ]
    tx.log_candidates = [(base, 128)]
    trace.append(tx)
    walk = Walk(trace, Scheme.PROTEUS)
    image = walk.crash(0, "flushed")
    blocks = [entry.block for entry in image.log_entries]
    assert blocks.count(base) == 2
    first, second = [e for e in image.log_entries if e.block == base]
    assert (first.pre_image[base], second.pre_image[base]) == (1, 100)
    whole = recovered(image)
    assert whole[base] == 1  # earliest pre-image, not 100
    assert images_equal(whole, walk.candidates[0])
    assert isinstance(image, CrashImage) and flattened(image)[base] == 103
