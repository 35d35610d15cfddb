"""Checkpoint creation and the content-addressed checkpoint store.

A :class:`Checkpoint` pins one sweep cell (a
:class:`~repro.parallel.cellspec.CellSpec`) at an operation offset into
its measured stream, in one of two fidelities:

* ``detailed`` — the machine actually simulated the prefix; the
  snapshot is exact, and a restored run is byte-identical in stats to
  an in-process continuation of the same segmented run.
* ``functional`` — the prefix is *fast-forwarded*: the workload state
  advances functionally (RNG, golden memory image, txids) with no
  timing simulation, the caches are warmed with the post-prefix
  footprint, and the log cursors are computed by replaying the skipped
  transactions through the same slot-accounting the lowering uses.
  Creation cost is O(ops) instead of O(cycles); microarchitectural
  state (queue recency, row buffers) is approximate and is repaired by
  the warmup window that samplers and campaigns run before measuring.

Checkpoints are content addressed exactly like cached results: the key
digests the full cell description, the offset, the fidelity kind, and
the repo code version, so any change to the simulator or workload
invalidates every stored checkpoint.  A corrupted, truncated, or
stale-schema checkpoint is a *miss* — the store rebuilds it — never an
error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.core.codegen import CodeGenerator
from repro.core.log_area import LOG_ENTRY_BYTES
from repro.core.schemes import Scheme
from repro.isa.instructions import expand_lines, expand_log_blocks
from repro.isa.ops import OpKind, TxRecord
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
from repro.workloads.heap import ThreadAddressSpace

#: Valid checkpoint fidelities.
CHECKPOINT_KINDS = ("detailed", "functional")

#: Blob suffix under the result cache's fan-out (never collides with
#: result payloads, which carry no suffix).
CHECKPOINT_BLOB_KIND = "ckpt"


@dataclass
class Checkpoint:
    """One cell frozen at an operation offset."""

    kind: str
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
    cell: CellSpec,
    op_offset: int,
    kind: str = "detailed",
    code_version: Optional[str] = None,
) -> str:
    """Content digest naming a checkpoint in the store."""
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    body = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": kind,
        "op_offset": int(op_offset),
        "cell": cell.describe(),
        "code_version": (
            code_version if code_version is not None else repo_code_version()
        ),
    }
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def _hw_log_slots(tx: TxRecord, scheme: Scheme) -> int:
    """Hardware log slots one transaction consumes (cursor accounting).

    Proteus allocates one entry per unique 32 B logging block the
    transaction writes (LLT hits suppress *memory traffic*, not slot
    allocation of the first touch; later touches of the same block are
    deduplicated here exactly as the LLT deduplicates them).  ATOM
    allocates one entry per unique written cache line.
    """
    if scheme.is_sshl:
        blocks: Set[int] = set()
        for op in tx.body:
            if op.kind is OpKind.WRITE:
                blocks.update(expand_log_blocks(op.addr, op.size))
        return len(blocks)
    if scheme.is_hardware:
        lines: Set[int] = set()
        for op in tx.body:
            if op.kind is OpKind.WRITE:
                lines.update(expand_lines(op.addr, op.size))
        return len(lines)
    return 0


def create_checkpoint(
    cell: CellSpec, op_offset: int, kind: str = "detailed"
) -> Checkpoint:
    """Build a checkpoint of ``cell`` at ``op_offset`` measured ops."""
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    if not 0 <= op_offset <= cell.sim_ops:
        raise ValueError(
            f"op_offset {op_offset} outside [0, {cell.sim_ops}] for this cell"
        )
    if cell.threads > cell.config.cores:
        raise ValueError(
            f"cell has {cell.threads} threads but only {cell.config.cores} cores"
        )
    workloads = workloads_for(cell)
    if kind == "detailed":
        prefix = [workload.generate_segment(op_offset) for workload in workloads]
        sim = Simulator(cell.config, cell.scheme, prefix)
        sim.run(max_cycles=cell.max_cycles)
        machine = capture_machine(
            sim,
            workload_cursors={
                workload.thread_id: workload.cursor() for workload in workloads
            },
        )
        return Checkpoint(kind=kind, cell=cell, op_offset=op_offset, machine=machine)

    # Functional fast-forward: advance the workloads, then synthesize a
    # warm machine with computed log cursors.
    sim = Simulator(cell.config, cell.scheme, [])
    sw_cursors: Dict[int, int] = {}
    hw_cursors: Dict[int, int] = {}
    for workload in workloads:
        consumed = workload.skip(op_offset)
        thread_id = workload.thread_id
        layout = ThreadAddressSpace(thread_id).layout()
        if cell.scheme.is_software:
            generator = CodeGenerator(cell.scheme, layout, thread_id)
            for tx in consumed:
                generator.advance_over(tx)
            sw_cursors[thread_id] = generator.sw_log_cursor
        elif cell.scheme.is_sshl or cell.scheme.is_hardware:
            slots = sum(_hw_log_slots(tx, cell.scheme) for tx in consumed)
            capacity = layout.hw_log_size // LOG_ENTRY_BYTES
            hw_cursors[thread_id] = (
                layout.hw_log_base + (slots % capacity) * LOG_ENTRY_BYTES
            )
        sim.warm_thread(thread_id, layout, workload.warm_lines())
    machine = capture_machine(
        sim,
        workload_cursors={
            workload.thread_id: workload.cursor() for workload in workloads
        },
    )
    machine.sw_log_cursors = sw_cursors
    machine.log_areas = hw_cursors
    return Checkpoint(kind=kind, cell=cell, op_offset=op_offset, machine=machine)


# ---------------------------------------------------------------------------
# checkpoint (de)serialization
# ---------------------------------------------------------------------------


def checkpoint_to_payload(checkpoint: Checkpoint) -> Dict[str, Any]:
    """Canonical JSON-able form of a checkpoint."""
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": checkpoint.kind,
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
    if kind not in CHECKPOINT_KINDS:
        raise SnapshotFormatError(f"unknown checkpoint kind {kind!r}")
    try:
        cell = CellSpec.from_dict(payload["cell"])
        op_offset = int(payload["op_offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"malformed checkpoint payload: {exc}") from exc
    machine = payload_to_snapshot(payload["machine"])
    return Checkpoint(kind=str(kind), cell=cell, op_offset=op_offset, machine=machine)


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

    def key(self, cell: CellSpec, op_offset: int, kind: str = "detailed") -> str:
        return checkpoint_key(
            cell, op_offset, kind, code_version=self.cache.code_version
        )

    def load(
        self, cell: CellSpec, op_offset: int, kind: str = "detailed"
    ) -> Optional[Checkpoint]:
        """Return the stored checkpoint, or ``None`` on miss/corruption."""
        key = self.key(cell, op_offset, kind)
        raw = self.cache.load_blob(key, CHECKPOINT_BLOB_KIND)
        if raw is None:
            self.misses += 1
            return None
        try:
            checkpoint = payload_to_checkpoint(json.loads(raw))
            if checkpoint.kind != kind or checkpoint.op_offset != op_offset:
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
        key = self.key(checkpoint.cell, checkpoint.op_offset, checkpoint.kind)
        payload = canonical_json(checkpoint_to_payload(checkpoint))
        if self.cache.store_blob(key, CHECKPOINT_BLOB_KIND, payload):
            self.stores += 1

    def get_or_create(
        self, cell: CellSpec, op_offset: int, kind: str = "detailed"
    ) -> Checkpoint:
        """Load a checkpoint, or build and persist it on a miss."""
        checkpoint = self.load(cell, op_offset, kind)
        if checkpoint is None:
            checkpoint = create_checkpoint(cell, op_offset, kind)
            self.store(checkpoint)
        return checkpoint

    def describe(self) -> str:
        return (
            f"checkpoints under {self.cache.root}: {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.corrupt} corrupt, "
            f"{self.stores} stored"
        )
