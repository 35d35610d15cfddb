"""Crash-frontier enumeration and materialization.

A :class:`Frontier` is one reachable crash cut at one stream position: a
chosen durable write-prefix per tracked line plus, for the hardware
schemes, a durable prefix of the in-flight transaction's log entries.
This module enumerates every frontier the persistency model reaches
(respecting floors and the log-before-data coupling), falls back to
stratified sampling under a state budget, and materializes a chosen
frontier into the :class:`~repro.persistence.crash.CrashImage` the
shared recovery predicate consumes.

A materialized image is an **overlay** over the thread's initial image:
it holds the words of the lines the stream has touched and leaves every
other word to the base, so a frontier costs its tracked lines, not the
whole heap.  Recovery repairs the overlay, and the atomicity check
compares it with each candidate on its own words plus the words that
candidate changed (:class:`~repro.persistence.recovery.CandidateImages`),
which gives the verdict the whole images would get.

Reductions applied (both sound — they only merge states with identical
recovery verdicts, never drop reachable distinct ones):

* **persist-equivalence** — line versions collapse on identical durable
  content (done in :class:`~repro.persistence.stream.LineHistory`);
* **frontier canonicalization** — fixed lines (floor == executed) take
  their single value implicitly; two positions whose digests agree are
  enumerated once (done by the checker's position dedup).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.codegen import REGION_DATA, REGION_SWLOG, SW_LOG_BYTES_PER_LINE
from repro.isa.instructions import CACHE_LINE
from repro.persistence.crash import CrashImage
from repro.persistence.model import WORD, LogEntry
from repro.persistence.stream import LineHistory, StreamState


@dataclass(frozen=True)
class Frontier:
    """One crash cut: a version choice per tracked line plus the durable
    log-entry prefix length (hardware schemes; 0 when unused)."""

    choices: Tuple[Tuple[int, int], ...]
    entry_count: int

    def chosen(self) -> Dict[int, int]:
        return dict(self.choices)


def _free_lines(state: StreamState) -> List[LineHistory]:
    return [
        history
        for _, history in sorted(state.lines.items())
        if history.floor < history.executed
    ]


def _entry_bounds(state: StreamState) -> Tuple[int, int]:
    """Reachable durable-prefix bounds for the in-flight log."""
    if state.open_txid is None or not state.entries:
        return 0, 0
    if state.scheme.is_sshl:
        return state.fenced_entries, len(state.entries)
    # ATOM: every entry is durable at store retirement by construction.
    return len(state.entries), len(state.entries)


def count_frontiers(state: StreamState) -> int:
    """Upper bound on distinct frontiers at this position (the raw
    product, before the log-before-data coupling prunes combinations)."""
    total = 1
    for history in _free_lines(state):
        total *= history.executed - history.floor + 1
    e_lo, e_hi = _entry_bounds(state)
    return total * (e_hi - e_lo + 1)


def _frontier(state: StreamState, chosen: Dict[int, int], entry_count: int) -> Frontier:
    choices = tuple(
        (line, chosen.get(line, history.floor))
        for line, history in sorted(state.lines.items())
    )
    return Frontier(choices=choices, entry_count=entry_count)


def _entry_floor(state: StreamState, chosen: Dict[int, int]) -> Optional[int]:
    """Smallest durable log prefix compatible with the chosen data
    versions (the log-before-data edges), or None when incompatible."""
    e_lo, e_hi = _entry_bounds(state)
    need = e_lo
    for line, version in chosen.items():
        history = state.lines[line]
        if history.region != REGION_DATA:
            continue
        need = max(need, history.needs[version])
    return need if need <= e_hi else None


def iter_exhaustive(state: StreamState) -> Iterator[Frontier]:
    """Every reachable frontier at the current position."""
    free = _free_lines(state)
    _, e_hi = _entry_bounds(state)
    ranges = [range(h.floor, h.executed + 1) for h in free]
    for combo in product(*ranges):
        chosen = {h.line: v for h, v in zip(free, combo)}
        e_min = _entry_floor(state, chosen)
        if e_min is None:
            continue  # data durable that no reachable log prefix covers
        for entry_count in range(e_min, e_hi + 1):
            yield _frontier(state, chosen, entry_count)


def sample_frontiers(state: StreamState, cap: int, seed: int) -> List[Frontier]:
    """Stratified sample of at most ``cap`` reachable frontiers.

    Strata, in order: the all-floor cut (most conservative), the
    all-executed cut (everything drained), every singleton advance (one
    line fully durable, the rest at floor), every singleton lag (one
    line at floor, the rest drained), then seeded random cuts until the
    cap fills.  The extremes and singletons are where single-cause bugs
    live; the random tail covers interactions.
    """
    free = _free_lines(state)
    _, e_hi = _entry_bounds(state)
    out: List[Frontier] = []
    seen = set()

    def push(chosen: Dict[int, int], entry_count: Optional[int] = None) -> None:
        if len(out) >= cap:
            return
        e_min = _entry_floor(state, chosen)
        if e_min is None:
            return
        for count in ((e_min, e_hi) if entry_count is None else (entry_count,)):
            if not e_min <= count <= e_hi:
                continue
            frontier = _frontier(state, chosen, count)
            key = (frontier.choices, frontier.entry_count)
            if key not in seen and len(out) < cap:
                seen.add(key)
                out.append(frontier)

    push({h.line: h.floor for h in free})
    push({h.line: h.executed for h in free})
    for pivot in free:
        chosen = {h.line: h.floor for h in free}
        chosen[pivot.line] = pivot.executed
        push(chosen)
    for pivot in free:
        chosen = {h.line: h.executed for h in free}
        chosen[pivot.line] = pivot.floor
        push(chosen)
    rng = random.Random(seed)
    attempts = 0
    while len(out) < cap and attempts < cap * 8:
        attempts += 1
        chosen = {
            h.line: rng.randint(h.floor, h.executed) for h in free
        }
        e_min = _entry_floor(state, chosen)
        if e_min is None:
            continue
        push(chosen, rng.randint(e_min, e_hi))
    return out


# -- materialization -------------------------------------------------------------


def materialize(state: StreamState, frontier: Frontier) -> CrashImage:
    """The durable machine state this frontier exposes, as an overlay
    over the thread's initial image.

    The overlay holds the tracked lines only: each data line at its
    chosen version, and 0 over each initial word of a log or flag line.
    Those lines reach recovery as log entries and the logFlag, never as
    memory words, so the image holds none of their words.  Every
    untracked line is still at its initial content.
    """
    chosen = frontier.chosen()
    durable: Dict[int, int] = {}
    for line, history in state.lines.items():
        if history.region == REGION_DATA:
            durable.update(history.content(chosen.get(line, history.floor)))
        else:
            durable.update(dict.fromkeys(history.content(0), 0))

    if state.scheme.is_software:
        logflag, entries = _software_log_view(state, chosen)
        return CrashImage(
            state.scheme,
            durable,
            entries,
            logflag=logflag,
            inflight_txid=logflag,
            base=state.initial_image,
        )

    entries = [entry.to_log_entry() for entry in state.entries[: frontier.entry_count]]
    return CrashImage(
        state.scheme,
        durable,
        entries,
        end_mark=state.open_txid is None,
        inflight_txid=state.open_txid or 0,
        base=state.initial_image,
    )


def _software_log_view(
    state: StreamState, chosen: Dict[int, int]
) -> Tuple[int, List[LogEntry]]:
    """Reconstruct the logFlag value and usable undo entries from the
    *chosen durable contents* of the flag and log-area lines.

    This is the crux of the software checker: an entry exists only if
    its header line's durable content names a logged data line, and its
    pre-image is whatever the payload line's durable content holds —
    torn pairs and corrupted payloads fall out naturally instead of
    needing special cases.
    """
    layout = state.layout
    flag_line = layout.logflag_addr & ~(CACHE_LINE - 1)
    flag_history = state.lines.get(flag_line)
    logflag = 0
    if flag_history is not None:
        version = chosen.get(flag_line, flag_history.floor)
        logflag = flag_history.content(version).get(layout.logflag_addr, 0)

    entries: List[LogEntry] = []
    for line, history in sorted(state.lines.items()):
        if history.region != REGION_SWLOG:
            continue
        offset = line - layout.sw_log_base
        if offset % SW_LOG_BYTES_PER_LINE != CACHE_LINE:
            continue  # payload line; consumed via its header below
        version = chosen.get(line, history.floor)
        header = history.content(version)
        logged_line = header.get(line, 0)
        if not logged_line:
            continue  # header never (durably) written: a torn pair
        payload_line = line - CACHE_LINE
        payload_history = state.lines.get(payload_line)
        payload: Dict[int, int] = {}
        if payload_history is not None:
            payload_version = chosen.get(payload_line, payload_history.floor)
            payload = payload_history.content(payload_version)
        pre_image = {
            logged_line + delta: payload.get(payload_line + delta, 0)
            for delta in range(0, CACHE_LINE, WORD)
        }
        entries.append(
            LogEntry(
                block=logged_line,
                grain=CACHE_LINE,
                pre_image=pre_image,
                txid=history.txids[version],
                order=offset // SW_LOG_BYTES_PER_LINE,
            )
        )
    return logflag, entries
