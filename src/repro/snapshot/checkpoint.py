"""Checkpoint creation and the content-addressed checkpoint store.

A :class:`Checkpoint` pins one sweep cell (a
:class:`~repro.parallel.cellspec.CellSpec`) at an operation offset into
its measured stream.  The machine actually simulated the prefix, so
the snapshot is exact: a restored run is byte-identical in stats to an
in-process continuation of the same segmented run.  Its payload names
this fidelity ``"kind": "detailed"``, and a payload of any other kind
is refused.

Checkpoints are content addressed exactly like cached results: the key
digests the full cell description, the offset, and the repo code
version, so any change to the simulator or workload invalidates every
stored checkpoint.  A corrupted, truncated, or stale-schema checkpoint
is a *miss* — the store rebuilds it — never an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.parallel.cache import ResultCache
from repro.parallel.cellspec import (
    SWEEP_WORKLOADS,
    CellSpec,
    canonical_json,
    repo_code_version,
)
from repro.sim.simulator import Simulator
from repro.snapshot.format import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotFormatError,
    payload_to_snapshot,
    snapshot_to_payload,
)
from repro.snapshot.state import capture_machine
from repro.workloads.base import Workload

#: The fidelity every checkpoint payload names: the prefix was simulated.
CHECKPOINT_KIND = "detailed"

#: Blob suffix under the result cache's fan-out (never collides with
#: result payloads, which carry no suffix).
CHECKPOINT_BLOB_KIND = "ckpt"


@dataclass
class Checkpoint:
    """One cell frozen at an operation offset."""

    cell: CellSpec
    op_offset: int
    machine: "Any"  # MachineSnapshot; Any avoids a re-export cycle in docs

    @property
    def remaining_ops(self) -> int:
        """Operations left in the cell's measured stream."""
        return self.cell.sim_ops - self.op_offset


def workloads_for(cell: CellSpec) -> List[Workload]:
    """Instantiate the cell's per-thread workload objects (unprepared)."""
    workload_cls = SWEEP_WORKLOADS[cell.workload]
    return [
        workload_cls(
            thread_id=thread_id,
            seed=cell.seed,
            init_ops=cell.init_ops,
            sim_ops=cell.sim_ops,
            **dict(cell.workload_kwargs),
        )
        for thread_id in range(cell.threads)
    ]


def checkpoint_key(
    cell: CellSpec, op_offset: int, code_version: Optional[str] = None
) -> str:
    """Content digest naming a checkpoint in the store."""
    body = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": CHECKPOINT_KIND,
        "op_offset": int(op_offset),
        "cell": cell.describe(),
        "code_version": (
            code_version if code_version is not None else repo_code_version()
        ),
    }
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def create_checkpoint(cell: CellSpec, op_offset: int) -> Checkpoint:
    """Simulate ``cell`` for ``op_offset`` measured ops and checkpoint it."""
    if not 0 <= op_offset <= cell.sim_ops:
        raise ValueError(
            f"op_offset {op_offset} outside [0, {cell.sim_ops}] for this cell"
        )
    if cell.threads > cell.config.cores:
        raise ValueError(
            f"cell has {cell.threads} threads but only {cell.config.cores} cores"
        )
    workloads = workloads_for(cell)
    prefix = [workload.generate_segment(op_offset) for workload in workloads]
    sim = Simulator(cell.config, cell.scheme, prefix)
    sim.run(max_cycles=cell.max_cycles)
    machine = capture_machine(
        sim,
        workload_cursors={
            workload.thread_id: workload.cursor() for workload in workloads
        },
    )
    return Checkpoint(cell=cell, op_offset=op_offset, machine=machine)


# ---------------------------------------------------------------------------
# checkpoint (de)serialization
# ---------------------------------------------------------------------------


def checkpoint_to_payload(checkpoint: Checkpoint) -> Dict[str, Any]:
    """Canonical JSON-able form of a checkpoint."""
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": CHECKPOINT_KIND,
        "op_offset": checkpoint.op_offset,
        "cell": checkpoint.cell.to_dict(),
        "machine": snapshot_to_payload(checkpoint.machine),
    }


def payload_to_checkpoint(payload: Mapping[str, Any]) -> Checkpoint:
    """Rebuild a checkpoint; :class:`SnapshotFormatError` on damage."""
    if not isinstance(payload, Mapping):
        raise SnapshotFormatError("checkpoint payload is not an object")
    if payload.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotFormatError(
            f"checkpoint schema {payload.get('schema')!r} != "
            f"{SNAPSHOT_SCHEMA_VERSION}"
        )
    kind = payload.get("kind")
    if kind != CHECKPOINT_KIND:
        raise SnapshotFormatError(f"unknown checkpoint kind {kind!r}")
    try:
        cell = CellSpec.from_dict(payload["cell"])
        op_offset = int(payload["op_offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"malformed checkpoint payload: {exc}") from exc
    machine = payload_to_snapshot(payload["machine"])
    return Checkpoint(cell=cell, op_offset=op_offset, machine=machine)


class CheckpointStore:
    """Content-addressed checkpoint persistence over a result cache.

    Reuses the :class:`~repro.parallel.cache.ResultCache` directory and
    fan-out (checkpoints are just another content-addressed artifact
    kind) while keeping its own hit/miss/corrupt accounting — a sweep's
    result-cache report stays meaningful.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    def key(self, cell: CellSpec, op_offset: int) -> str:
        return checkpoint_key(cell, op_offset, code_version=self.cache.code_version)

    def load(self, cell: CellSpec, op_offset: int) -> Optional[Checkpoint]:
        """Return the stored checkpoint, or ``None`` on miss/corruption."""
        key = self.key(cell, op_offset)
        raw = self.cache.load_blob(key, CHECKPOINT_BLOB_KIND)
        if raw is None:
            self.misses += 1
            return None
        try:
            checkpoint = payload_to_checkpoint(json.loads(raw))
            if checkpoint.op_offset != op_offset:
                raise SnapshotFormatError(
                    "stored checkpoint does not match its key"
                )
        except (ValueError, KeyError, TypeError):
            # SnapshotFormatError subclasses ValueError: stale schema,
            # damaged JSON, and foreign payloads all fall back to rebuild.
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return checkpoint

    def store(self, checkpoint: Checkpoint) -> None:
        """Persist a checkpoint atomically; IO failures are non-fatal."""
        key = self.key(checkpoint.cell, checkpoint.op_offset)
        payload = canonical_json(checkpoint_to_payload(checkpoint))
        if self.cache.store_blob(key, CHECKPOINT_BLOB_KIND, payload):
            self.stores += 1

    def get_or_create(self, cell: CellSpec, op_offset: int) -> Checkpoint:
        """Load a checkpoint, or build and persist it on a miss."""
        checkpoint = self.load(cell, op_offset)
        if checkpoint is None:
            checkpoint = create_checkpoint(cell, op_offset)
            self.store(checkpoint)
        return checkpoint

    def describe(self) -> str:
        return (
            f"checkpoints under {self.cache.root}: {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.corrupt} corrupt, "
            f"{self.stores} stored"
        )
