"""Snapshot round-trip byte-identity and damage handling.

The determinism contract: snapshot → serialize → restore → run must be
*byte-identical in stats* to an uninterrupted segmented run of the same
cell, for every scheme.  Damage handling: a corrupted, truncated,
stale-schema, foreign-kind, or key-mismatched checkpoint is a cache
*miss* (rebuilt), never an error.
"""

from __future__ import annotations

import json

import pytest

from repro.core.schemes import Scheme
from repro.parallel.cache import ResultCache
from repro.parallel.cellspec import CellSpec, result_bytes
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import Simulator
from repro.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    CheckpointStore,
    SnapshotFormatError,
    SnapshotStateError,
    capture_machine,
    checkpoint_to_payload,
    create_checkpoint,
    payload_to_checkpoint,
    payload_to_snapshot,
    restore_machine,
    resume_run,
    snapshot_bytes,
    snapshot_to_payload,
    workloads_for,
)

SIZING = dict(threads=1, seed=11, init_ops=64, sim_ops=10)
SPLIT = 4


def tiny_cell(scheme, workload="QE", threads=1):
    sizing = dict(SIZING)
    sizing["threads"] = threads
    return CellSpec(
        workload=workload,
        scheme=scheme,
        config=fast_nvm_config(cores=threads),
        **sizing,
    )


def segmented_run(cell, split):
    """Uninterrupted reference: one machine runs prefix then suffix."""
    workloads = workloads_for(cell)
    prefix = [w.generate_segment(split) for w in workloads]
    sim = Simulator(cell.config, cell.scheme, prefix)
    sim.run(max_cycles=cell.max_cycles)
    suffix = [w.generate_segment(cell.sim_ops - split) for w in workloads]
    sim.load_segment(suffix)
    return sim.run(max_cycles=cell.max_cycles)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_snapshot_restore_is_byte_identical(scheme):
    cell = tiny_cell(scheme)
    reference = segmented_run(cell, SPLIT)

    checkpoint = create_checkpoint(cell, SPLIT)
    # Full serialization round trip, through actual JSON text.
    payload = json.loads(json.dumps(checkpoint_to_payload(checkpoint)))
    resumed = resume_run(payload_to_checkpoint(payload))

    assert result_bytes(resumed) == result_bytes(reference)


def test_snapshot_restore_two_threads_byte_identical():
    cell = tiny_cell(Scheme.PROTEUS, workload="HM", threads=2)
    reference = segmented_run(cell, SPLIT)
    checkpoint = create_checkpoint(cell, SPLIT)
    payload = json.loads(json.dumps(checkpoint_to_payload(checkpoint)))
    resumed = resume_run(payload_to_checkpoint(payload))
    assert result_bytes(resumed) == result_bytes(reference)


def test_resume_refuses_a_foreign_offset_or_cursor():
    """A ``--in`` file comes from outside the program: an offset beyond
    the cell's measured stream, or a workload cursor the regenerated
    stream does not reach, stops the resume instead of simulating a
    wrong continuation."""
    cell = tiny_cell(Scheme.PMEM)
    payload = checkpoint_to_payload(create_checkpoint(cell, SPLIT))

    beyond = json.loads(json.dumps(payload))
    beyond["op_offset"] = cell.sim_ops + 1
    with pytest.raises(ValueError, match="cannot resume -1 op"):
        resume_run(payload_to_checkpoint(beyond))

    drifted = json.loads(json.dumps(payload))
    drifted["machine"]["workload_cursors"]["0"]["next_txid"] += 1
    with pytest.raises(SnapshotFormatError, match="workload cursor drifted"):
        resume_run(payload_to_checkpoint(drifted))


def test_capture_requires_quiescence(small_config):
    from repro.mem.wpq import QueueEntry

    sim = Simulator(small_config, Scheme.PROTEUS, [])
    sim.engine.cycle = 5
    sim.memctrl.wpq.submit(QueueEntry(addr=0x1000, category="data"))
    with pytest.raises(SnapshotStateError):
        capture_machine(sim)


def test_snapshot_payload_rejects_stale_schema(small_config):
    sim = Simulator(small_config, Scheme.PROTEUS, [])
    payload = snapshot_to_payload(capture_machine(sim))
    payload["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
    with pytest.raises(SnapshotFormatError):
        payload_to_snapshot(payload)
    # SnapshotFormatError is a ValueError so generic corrupt-as-miss
    # handling at the cache layer catches it.
    assert issubclass(SnapshotFormatError, ValueError)


def test_snapshot_restore_roundtrips_counters(small_config):
    cell = tiny_cell(Scheme.ATOM)
    checkpoint = create_checkpoint(cell, SPLIT)
    machine = payload_to_snapshot(
        json.loads(json.dumps(snapshot_to_payload(checkpoint.machine)))
    )
    assert snapshot_bytes(machine) == snapshot_bytes(checkpoint.machine)
    sim = restore_machine(machine, [])
    assert sim.engine.cycle == machine.cycle
    assert dict(sim.stats.counters) == machine.counters


# ---------------------------------------------------------------------------
# checkpoint store: hits, and damage-as-miss
# ---------------------------------------------------------------------------


def make_store(tmp_path):
    return CheckpointStore(ResultCache(tmp_path, code_version="pinned-test"))


def stored_blob(store, cell, offset):
    return store.cache.blob_path(store.key(cell, offset), "ckpt")


def test_store_roundtrip_and_hit(tmp_path):
    store = make_store(tmp_path)
    cell = tiny_cell(Scheme.PROTEUS)
    created = store.get_or_create(cell, SPLIT)
    assert (store.misses, store.stores) == (1, 1)
    loaded = store.get_or_create(cell, SPLIT)
    assert store.hits == 1
    assert snapshot_bytes(loaded.machine) == snapshot_bytes(created.machine)
    # The reloaded checkpoint resumes byte-identically too.
    assert result_bytes(resume_run(loaded)) == result_bytes(
        resume_run(created)
    )


def test_corrupted_checkpoint_is_a_miss(tmp_path):
    store = make_store(tmp_path)
    cell = tiny_cell(Scheme.PMEM)
    store.get_or_create(cell, SPLIT)
    stored_blob(store, cell, SPLIT).write_text("{not json")

    assert store.load(cell, SPLIT) is None
    assert store.corrupt == 1
    rebuilt = store.get_or_create(cell, SPLIT)  # rebuilds and re-stores
    assert rebuilt.op_offset == SPLIT
    assert store.stores == 2
    assert store.load(cell, SPLIT) is not None


@pytest.mark.parametrize(
    "field, value",
    [("schema", SNAPSHOT_SCHEMA_VERSION + 1), ("kind", "functional")],
    ids=["schema", "kind"],
)
def test_stale_schema_checkpoint_is_a_miss(tmp_path, field, value):
    """A checkpoint of another schema, or of a kind other than a
    simulated prefix, is never resumed as if it were exact."""
    store = make_store(tmp_path)
    cell = tiny_cell(Scheme.ATOM)
    store.get_or_create(cell, SPLIT)
    path = stored_blob(store, cell, SPLIT)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))

    assert store.load(cell, SPLIT) is None
    assert store.corrupt == 1
    with pytest.raises(SnapshotFormatError):
        payload_to_checkpoint(payload)


def test_key_mismatched_checkpoint_is_a_miss(tmp_path):
    """A blob whose body disagrees with its key (offset swap) is corrupt."""
    store = make_store(tmp_path)
    cell = tiny_cell(Scheme.PMEM_PCOMMIT)
    store.get_or_create(cell, SPLIT)
    path = stored_blob(store, cell, SPLIT)
    payload = json.loads(path.read_text())
    payload["op_offset"] = SPLIT + 1
    path.write_text(json.dumps(payload))

    assert store.load(cell, SPLIT) is None
    assert store.corrupt == 1
