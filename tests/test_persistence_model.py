"""The stream model's candidate images and undo-log entries.

Crash images come from :mod:`tests.crashes`: a transaction's lowered
stream replayed through :class:`~repro.persistence.stream.StreamState`
to one of its protocol steps.
"""

from repro.core.schemes import Scheme
from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.persistence.crash import images_equal
from tests.crashes import Walk


def make_trace():
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 10, 0x1008: 11, 0x1040: 12}
    tx1 = TxRecord(txid=1)
    tx1.body = [Op.write(0x1000, 100), Op.write(0x1008, 101)]
    tx1.log_candidates = [(0x1000, 64)]
    tx2 = TxRecord(txid=2)
    tx2.body = [Op.write(0x1000, 200), Op.write(0x1040, 201)]
    tx2.log_candidates = [(0x1000, 64), (0x1040, 64)]
    trace.append(tx1)
    trace.append(tx2)
    return trace


def test_final_words_and_written_lines():
    walk = Walk(make_trace(), Scheme.PROTEUS)
    assert {w: walk.candidates[1][w] for w in (0x1000, 0x1008)} == {
        0x1000: 100, 0x1008: 101
    }
    assert walk.written_lines(0) == [0x1000]
    assert walk.written_lines(1) == [0x1000, 0x1040]


def test_image_after_composition():
    candidates = Walk(make_trace(), Scheme.PROTEUS).candidates
    assert len(candidates) == 3
    assert candidates[0][0x1000] == 10
    assert candidates[1][0x1000] == 100
    assert candidates[2][0x1000] == 200
    assert candidates[2][0x1008] == 101


def test_software_logs_candidates_at_line_granularity():
    image = Walk(make_trace(), Scheme.PMEM).crash(1, "flagged")
    entries = [entry for entry in image.log_entries if entry.txid == 2]
    assert image.logflag == 2
    assert {entry.block for entry in entries} == {0x1000, 0x1040}
    assert all(entry.grain == 64 for entry in entries)
    # Pre-images are the values at tx-2 start (after tx 1).
    entry = next(e for e in entries if e.block == 0x1000)
    assert entry.pre_image[0x1000] == 100
    assert entry.pre_image[0x1008] == 101


def test_proteus_logs_written_blocks_at_32B():
    entries = Walk(make_trace(), Scheme.PROTEUS).crash(0, "flushed").log_entries
    # Both writes fall in the same 32 B block: the stream logs it once
    # per store (the LLT squashes the repeat), and the earliest entry
    # holds the pre-transaction value.
    assert {entry.block for entry in entries} == {0x1000}
    assert all(entry.grain == 32 for entry in entries)
    assert min(entries, key=lambda e: e.order).pre_image[0x1000] == 10


def test_atom_logs_written_lines_at_64B():
    entries = Walk(make_trace(), Scheme.ATOM).crash(0, "flushed").log_entries
    assert len(entries) == 1
    assert entries[0].grain == 64


def test_nolog_has_no_entries():
    walk = Walk(make_trace(), Scheme.PMEM_NOLOG)
    assert all(
        not walk.crash(k, "flushed").log_entries for k in range(walk.transactions)
    )


def test_last_entry_carries_end_mark():
    """The end-of-transaction mark is durable from tx-end on."""
    walk = Walk(make_trace(), Scheme.PROTEUS)
    for k in range(walk.transactions):
        before = walk.crash(k, "flushed")
        assert not before.end_mark and before.inflight_txid == k + 1
        after = walk.crash(k, "committed")
        assert after.end_mark and after.inflight_txid == 0


def test_small_filter_relogs_with_intra_tx_values():
    """A later entry of an already logged block (an LLT eviction, or a
    repeat the LLT squashes) holds mid-transaction data — the hazard
    earliest-entry recovery handles."""
    trace = OpTrace(thread_id=0)
    trace.initial_image = {0x1000: 1, 0x1020: 2, 0x1040: 3}
    tx = TxRecord(txid=1)
    tx.body = [
        Op.write(0x1000, 100),   # logs block 0x1000 (pre = 1)
        Op.write(0x1020, 101),   # logs block 0x1020
        Op.write(0x1040, 102),   # logs block 0x1040
        Op.write(0x1000, 103),   # re-logs 0x1000 with pre = 100 (dirty!)
    ]
    tx.log_candidates = [(0x1000, 128)]
    trace.append(tx)
    entries = Walk(trace, Scheme.PROTEUS).crash(0, "flushed").log_entries
    blocks = [entry.block for entry in entries]
    assert blocks.count(0x1000) == 2
    first, second = [e for e in entries if e.block == 0x1000]
    assert first.pre_image[0x1000] == 1
    assert second.pre_image[0x1000] == 100  # intra-transaction value
    assert first.order < second.order


def test_images_equal_treats_missing_as_zero():
    assert images_equal({0x10: 0}, {})
    assert not images_equal({0x10: 1}, {})
    assert images_equal({}, {})
