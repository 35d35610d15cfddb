"""Write-ahead sweep journal: crash-safe campaign state as versioned JSONL.

The journal applies the paper's own logging discipline to the execution
layer: *journal intent before doing work, recover by replaying the
journal* (Proteus's log pairs are written before the data they cover;
Marathe et al.'s failure-atomicity model recovers by log replay).  One
journal file records the lifecycle of every task of one campaign —
sweep cells, profile/lint matrix cells, or fault-campaign crash cases —
as an append-only stream of self-contained JSON records:

``header``
    first record; carries the journal schema version and the repo code
    version.  Replaying a journal written by a *different* code version
    refuses with :class:`JournalVersionError` — the recorded payloads
    would not be byte-identical to what the current code produces.
``pending``
    intent: the task is enumerated and will be executed (written before
    any work starts, with the task's canonical description).
``running``
    an execution attempt started (carries the attempt number).
``done``
    the task finished; carries the full canonical result payload, so a
    resumed campaign can serve the result without re-simulating and
    without depending on the result cache surviving.
``failed``
    one attempt failed (carries the traceback text and attempt number).
``quarantined``
    the task exhausted its retry budget and is poisoned: recorded with
    its last error and never re-run by a resume.

Durability contract: every append is a single ``write`` of one ``\\n``-
terminated line followed by ``flush`` + ``fsync``, so a SIGKILL at any
instant loses at most the record being appended.  Replay is
*truncation tolerant*: a torn final record (no trailing newline, or
undecodable) is ignored, as is any damaged interior line — a lost
``done`` record merely re-runs a deterministic task, so recovery always
converges to the same results.  Duplicate ``done`` records (a crash
between append and the caller observing it, then a re-run) keep the
first payload; determinism makes the copies byte-identical anyway.

A ``done`` payload is the task result in JSON form.  The sweeps whose
results are dataclasses (lint, verify, profile, the fault campaign's
crash cases) share one codec for it, :func:`to_payload` and
:func:`from_payload`.
"""

from __future__ import annotations

import functools
import json
import os
import signal
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.parallel.cellspec import canonical_json, repo_code_version

#: Bump on any breaking change to the record layout; old journals refuse.
JOURNAL_SCHEMA_VERSION = 1

#: States a task can occupy after replay.
TASK_STATES = ("pending", "running", "done", "failed", "quarantined")

#: States that a resume must not re-execute.
TERMINAL_STATES = ("done", "quarantined")

#: Environment hook for the chaos harness: after this many ``done``
#: appends (counted per process), the journal SIGKILLs its own process
#: immediately after the fsync — a deterministic stand-in for "the
#: driver died mid-sweep" that exercises exactly the bytes a real crash
#: would leave behind.
KILL_AFTER_ENV = "REPRO_CHAOS_KILL_AFTER"


class JournalError(ValueError):
    """A journal file cannot be used (unusable header, wrong sweep)."""


class JournalVersionError(JournalError):
    """The journal was written by a different code version."""


@dataclass
class JournalEntry:
    """Replayed lifecycle state of one task."""

    key: str
    status: str = "pending"
    payload: Optional[Dict[str, Any]] = None
    attempts: int = 0
    error: Optional[str] = None
    description: Optional[Dict[str, Any]] = None


@dataclass
class ReplayReport:
    """What replay found in an existing journal file."""

    records: int = 0
    torn_tail: bool = False
    damaged_lines: int = 0
    duplicate_done: int = 0
    headers: int = 0


class SweepJournal:
    """Append-only JSONL journal for one resumable campaign.

    Opening a journal replays any existing file immediately; appends are
    written lazily on the first ``begin``/``mark_*`` call.  The journal
    is cheap enough to fsync per record because campaign tasks are
    seconds-long simulations, not microsecond operations.
    """

    def __init__(
        self,
        path: "Path | str",
        code_version: Optional[str] = None,
        label: str = "sweep",
    ) -> None:
        self.path = Path(path)
        self.code_version = (
            code_version if code_version is not None else repo_code_version()
        )
        self.label = label
        self.entries: Dict[str, JournalEntry] = {}
        self.replay = ReplayReport()
        self.appended = 0
        self._handle: Optional[IO[str]] = None
        self._header_on_disk = False
        self._kill_countdown = _kill_countdown_from_env()
        self._replay_existing()

    # -- replay ------------------------------------------------------------

    def _replay_existing(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        if not data:
            return
        lines = data.split(b"\n")
        ends_with_newline = data.endswith(b"\n")
        if ends_with_newline:
            lines = lines[:-1]
        records: List[Tuple[int, Dict[str, Any]]] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError):
                if index == len(lines) - 1 and not ends_with_newline:
                    # Torn final record: the process died mid-append.
                    self.replay.torn_tail = True
                else:
                    self.replay.damaged_lines += 1
                continue
            records.append((index, record))
        if not records or records[0][1].get("kind") != "header":
            raise JournalError(
                f"journal {self.path} has no usable header record; it is "
                f"not a sweep journal (or is damaged beyond replay) — "
                f"delete it to start fresh"
            )
        self._check_header(records[0][1])
        self._header_on_disk = True
        for _, record in records:
            self._apply(record)

    def _check_header(self, header: Mapping[str, Any]) -> None:
        schema = header.get("schema")
        if schema != JOURNAL_SCHEMA_VERSION:
            raise JournalVersionError(
                f"journal {self.path} uses schema {schema!r}, this code "
                f"writes schema {JOURNAL_SCHEMA_VERSION}; delete the "
                f"journal to start fresh"
            )
        recorded = str(header.get("code_version", ""))
        if recorded != self.code_version:
            raise JournalVersionError(
                f"journal {self.path} was written by code version "
                f"{recorded[:12]}…, but the current sources hash to "
                f"{self.code_version[:12]}… — its recorded results would "
                f"not match this code.  Re-run without --resume (or "
                f"delete the journal) to start fresh"
            )

    def _apply(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "header":
            self.replay.headers += 1
            return
        key = record.get("key")
        if not isinstance(key, str) or kind not in TASK_STATES:
            self.replay.damaged_lines += 1
            return
        self.replay.records += 1
        entry = self.entries.get(key)
        if entry is None:
            entry = JournalEntry(key=key)
            self.entries[key] = entry
        if kind == "pending":
            description = record.get("description")
            if isinstance(description, dict):
                entry.description = description
            return
        if entry.status in TERMINAL_STATES:
            if kind == "done" and entry.status == "done":
                self.replay.duplicate_done += 1
            return
        if kind == "running":
            entry.status = "running"
            entry.attempts = max(entry.attempts, int(record.get("attempt", 1)))
        elif kind == "done":
            payload = record.get("payload")
            entry.status = "done"
            entry.payload = payload if isinstance(payload, dict) else None
        elif kind == "failed":
            entry.status = "failed"
            entry.attempts = max(entry.attempts, int(record.get("attempt", 1)))
            entry.error = str(record.get("error", ""))
        elif kind == "quarantined":
            entry.status = "quarantined"
            entry.attempts = max(entry.attempts, int(record.get("attempts", 1)))
            entry.error = str(record.get("error", ""))

    # -- appends -----------------------------------------------------------

    def _open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            if not self._header_on_disk:
                self._append(
                    {
                        "kind": "header",
                        "schema": JOURNAL_SCHEMA_VERSION,
                        "code_version": self.code_version,
                        "label": self.label,
                    },
                    fsync=True,
                )
                self._header_on_disk = True
                _fsync_dir(self.path.parent)
        return self._handle

    def _append(self, record: Dict[str, Any], fsync: bool = True) -> None:
        handle = self._open()
        handle.write(canonical_json(record) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        self.appended += 1

    def begin(
        self,
        tasks: Iterable[Tuple[str, Optional[Mapping[str, Any]]]],
    ) -> None:
        """Record intent for every not-yet-journaled task (one batch).

        Re-beginning already-known keys is a no-op, so resumed campaigns
        and multi-batch sweeps call this freely.  The whole batch shares
        one fsync: pending records are intent, not results.
        """
        wrote = False
        for key, description in tasks:
            if key in self.entries:
                continue
            self.entries[key] = JournalEntry(
                key=key,
                description=dict(description) if description is not None else None,
            )
            record: Dict[str, Any] = {"kind": "pending", "key": key}
            if description is not None:
                record["description"] = dict(description)
            self._append(record, fsync=False)
            wrote = True
        if wrote and self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def mark_running(self, key: str, attempt: int) -> None:
        entry = self.entries.setdefault(key, JournalEntry(key=key))
        entry.status = "running"
        entry.attempts = max(entry.attempts, attempt)
        self._append({"kind": "running", "key": key, "attempt": attempt})

    def mark_done(self, key: str, payload: Mapping[str, Any]) -> None:
        """Record a task's result; idempotent once terminal."""
        entry = self.entries.setdefault(key, JournalEntry(key=key))
        if entry.status in TERMINAL_STATES:
            return
        entry.status = "done"
        entry.payload = dict(payload)
        self._append({"kind": "done", "key": key, "payload": dict(payload)})
        self._maybe_chaos_kill()

    def mark_failed(self, key: str, attempt: int, error: str) -> None:
        entry = self.entries.setdefault(key, JournalEntry(key=key))
        if entry.status not in TERMINAL_STATES:
            entry.status = "failed"
            entry.attempts = max(entry.attempts, attempt)
            entry.error = error
        self._append(
            {"kind": "failed", "key": key, "attempt": attempt, "error": error}
        )

    def mark_quarantined(self, key: str, attempts: int, error: str) -> None:
        entry = self.entries.setdefault(key, JournalEntry(key=key))
        if entry.status in TERMINAL_STATES:
            return
        entry.status = "quarantined"
        entry.attempts = max(entry.attempts, attempts)
        entry.error = error
        self._append(
            {
                "kind": "quarantined",
                "key": key,
                "attempts": attempts,
                "error": error,
            }
        )

    def _maybe_chaos_kill(self) -> None:
        if self._kill_countdown is None:
            return
        self._kill_countdown -= 1
        if self._kill_countdown <= 0:  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)

    # -- queries -----------------------------------------------------------

    def status(self, key: str) -> Optional[str]:
        entry = self.entries.get(key)
        return entry.status if entry is not None else None

    def is_done(self, key: str) -> bool:
        return self.status(key) == "done"

    def is_quarantined(self, key: str) -> bool:
        return self.status(key) == "quarantined"

    def done_payload(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self.entries.get(key)
        if entry is None or entry.status != "done":
            return None
        return entry.payload

    def entry(self, key: str) -> Optional[JournalEntry]:
        return self.entries.get(key)

    def unfinished_keys(self) -> List[str]:
        """Keys a resume still has to execute, in journal order."""
        return [
            key
            for key, entry in self.entries.items()
            if entry.status not in TERMINAL_STATES
        ]

    def counts(self) -> Dict[str, int]:
        tallies = {state: 0 for state in TASK_STATES}
        for entry in self.entries.values():
            tallies[entry.status] += 1
        return tallies

    def describe(self) -> str:
        tallies = self.counts()
        parts = [
            f"journal {self.path}: {len(self.entries)} task(s) — "
            + ", ".join(
                f"{tallies[state]} {state}"
                for state in TASK_STATES
                if tallies[state]
            )
        ]
        if self.replay.torn_tail:
            parts.append("torn final record ignored")
        if self.replay.damaged_lines:
            parts.append(f"{self.replay.damaged_lines} damaged line(s) ignored")
        if self.replay.duplicate_done:
            parts.append(
                f"{self.replay.duplicate_done} duplicate done record(s)"
            )
        return "; ".join(parts)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def to_payload(value: Any) -> Any:
    """JSON-safe form of a task result for a ``done`` record.

    Dataclasses become dicts of their fields, enums their values, lists
    and tuples lists, dicts dicts; strings, numbers, booleans and
    ``None`` pass through.  :func:`from_payload` inverts it.
    """
    if is_dataclass(value):
        return {f.name: to_payload(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_payload(item) for item in value]
    if isinstance(value, dict):
        return {key: to_payload(item) for key, item in value.items()}
    return value


def from_payload(hint: Any, payload: Any) -> Any:
    """Rebuild a value of type ``hint`` from its :func:`to_payload` form.

    ``hint`` is a dataclass, an enum, ``List[...]``, ``Dict[...]``,
    ``Optional[...]`` or a plain JSON type.  A damaged payload (a field
    missing, a value of the wrong type, an unknown enum value) raises
    ``KeyError``, ``TypeError`` or ``ValueError``: the sweep executor
    answers any of the three by re-running the task.
    """
    origin = get_origin(hint)
    if origin is Union:  # Optional[X]
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return None if payload is None else from_payload(inner, payload)
    if origin is list:
        (item,) = get_args(hint)
        return [from_payload(item, entry) for entry in _expect(payload, list)]
    if origin is dict:
        key, item = get_args(hint)
        return {
            from_payload(key, name): from_payload(item, entry)
            for name, entry in _expect(payload, dict).items()
        }
    if is_dataclass(hint):
        payload = _expect(payload, dict)
        return hint(**{
            name: from_payload(field_hint, payload[name])
            for name, field_hint in _field_hints(hint)
        })
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(payload)
    return _expect(payload, hint)


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, type)`` of each ``__init__`` field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls) if f.init)


def _expect(payload: Any, kind: type) -> Any:
    # A JSON boolean is an int to isinstance, but never a count.
    if not isinstance(payload, kind) or (
        isinstance(payload, bool) and kind is not bool
    ):
        raise TypeError(
            f"journal payload holds {type(payload).__name__}, "
            f"expected {kind.__name__}"
        )
    return payload


def _kill_countdown_from_env() -> Optional[int]:
    raw = os.environ.get(KILL_AFTER_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of the journal's directory (new-file durability)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
