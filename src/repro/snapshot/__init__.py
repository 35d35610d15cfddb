"""Deterministic machine-state checkpointing.

Two layers:

* :mod:`repro.snapshot.format` / :mod:`repro.snapshot.state` — exact,
  versioned snapshot/restore of the full machine at drained quiescent
  points (byte-identical continuation, held by tests);
* :mod:`repro.snapshot.checkpoint` / :mod:`repro.snapshot.resume` —
  content-addressed checkpoints of a simulated prefix, stored
  alongside cached results, plus resume.

See ``docs/checkpointing.md`` for the determinism contract.
"""

from repro.snapshot.checkpoint import (
    Checkpoint,
    CheckpointStore,
    checkpoint_key,
    checkpoint_to_payload,
    create_checkpoint,
    payload_to_checkpoint,
    workloads_for,
)
from repro.snapshot.format import (
    SNAPSHOT_SCHEMA_VERSION,
    MachineSnapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotStateError,
    payload_to_snapshot,
    snapshot_bytes,
    snapshot_digest,
    snapshot_to_payload,
)
from repro.snapshot.resume import resume_run
from repro.snapshot.state import capture_machine, restore_machine

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "MachineSnapshot",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotStateError",
    "capture_machine",
    "checkpoint_key",
    "checkpoint_to_payload",
    "create_checkpoint",
    "payload_to_checkpoint",
    "payload_to_snapshot",
    "restore_machine",
    "resume_run",
    "snapshot_bytes",
    "snapshot_digest",
    "snapshot_to_payload",
    "workloads_for",
]
