"""Snapshot serialization format.

A :class:`MachineSnapshot` is the serializable machine state at a
*drained quiescent point*: every core finished its segment, the event
heap is empty, and the memory controller is drained.  That state is —
deliberately — small and structural: cache contents and recency order,
queue entries, NVM bank rows, log cursors, the Stats counter map, the
clock, and each thread's workload cursor.  Event callbacks (closures)
never need to be serialized because none are pending at a quiescent
point.

The serialized form is versioned (:data:`SNAPSHOT_SCHEMA_VERSION`) and
canonical: :func:`snapshot_bytes` is deterministic JSON with sorted
keys, so a snapshot's digest is stable across processes and platforms.
A reader that encounters an unknown schema version (or any structural
damage) raises :class:`SnapshotFormatError`, which the checkpoint store
treats as a cache miss — stale snapshots are rebuilt, never trusted.

Determinism note: the timing simulator itself is RNG-free; the only
random streams involved are the per-thread workload RNGs, which are
fully determined by ``(seed, thread_id, ops consumed)``.  Snapshots
therefore store the *workload cursor* (operations consumed, next txid)
instead of raw RNG state, and resume regenerates the stream via
:meth:`~repro.workloads.base.Workload.skip`, which is tested to be
byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.parallel.cellspec import canonical_json

#: Bump when the serialized layout changes; old snapshots become misses.
SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(RuntimeError):
    """Base class for snapshot subsystem failures."""


class SnapshotStateError(SnapshotError):
    """The machine is not in a serializable (quiescent) state."""


class SnapshotFormatError(SnapshotError, ValueError):
    """A serialized snapshot is damaged, foreign, or from another schema.

    Subclasses :class:`ValueError` so generic corrupt-payload handling
    (the result cache's miss-on-corruption contract) applies unchanged.
    """


@dataclass
class MachineSnapshot:
    """Full machine state at a drained quiescent point.

    Thread-keyed maps use ``int`` thread ids in memory and string keys
    in the JSON payload (JSON objects cannot have integer keys).
    """

    scheme: str
    config: Dict[str, Any]
    cycle: int
    counters: Dict[str, int]
    hierarchy: Dict[str, Any]
    memctrl: Dict[str, Any]
    log_areas: Dict[int, int] = field(default_factory=dict)
    sw_log_cursors: Dict[int, int] = field(default_factory=dict)
    workload_cursors: Dict[int, Dict[str, int]] = field(default_factory=dict)


def snapshot_to_payload(snapshot: MachineSnapshot) -> Dict[str, Any]:
    """Serialize a snapshot into a canonical JSON-able payload."""
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "scheme": snapshot.scheme,
        "config": snapshot.config,
        "cycle": snapshot.cycle,
        "counters": dict(sorted(snapshot.counters.items())),
        "hierarchy": snapshot.hierarchy,
        "memctrl": snapshot.memctrl,
        "log_areas": {
            str(thread): cur for thread, cur in sorted(snapshot.log_areas.items())
        },
        "sw_log_cursors": {
            str(thread): cur
            for thread, cur in sorted(snapshot.sw_log_cursors.items())
        },
        "workload_cursors": {
            str(thread): {key: int(value) for key, value in sorted(cursor.items())}
            for thread, cursor in sorted(snapshot.workload_cursors.items())
        },
    }


def payload_to_snapshot(payload: Mapping[str, Any]) -> MachineSnapshot:
    """Rebuild a snapshot; raises :class:`SnapshotFormatError` on damage."""
    if not isinstance(payload, Mapping):
        raise SnapshotFormatError("snapshot payload is not an object")
    schema = payload.get("schema")
    if schema != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotFormatError(
            f"snapshot schema {schema!r} != {SNAPSHOT_SCHEMA_VERSION}"
        )
    try:
        return MachineSnapshot(
            scheme=str(payload["scheme"]),
            config=dict(payload["config"]),
            cycle=int(payload["cycle"]),
            counters={
                str(name): int(value)
                for name, value in payload["counters"].items()
            },
            hierarchy=dict(payload["hierarchy"]),
            memctrl=dict(payload["memctrl"]),
            log_areas={
                int(thread): int(cur)
                for thread, cur in payload["log_areas"].items()
            },
            sw_log_cursors={
                int(thread): int(cur)
                for thread, cur in payload["sw_log_cursors"].items()
            },
            workload_cursors={
                int(thread): {str(key): int(value) for key, value in cursor.items()}
                for thread, cursor in payload["workload_cursors"].items()
            },
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotFormatError(f"malformed snapshot payload: {exc}") from exc


def snapshot_bytes(snapshot: MachineSnapshot) -> bytes:
    """Canonical byte serialization (stable across processes/platforms)."""
    return canonical_json(snapshot_to_payload(snapshot)).encode("utf-8")


def snapshot_digest(snapshot: MachineSnapshot) -> str:
    """Content hash of the serialized snapshot."""
    return hashlib.sha256(snapshot_bytes(snapshot)).hexdigest()
