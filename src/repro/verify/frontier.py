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

What the frontiers of one crash point share is built once per position,
as a :class:`FrontierView`: the tracked lines in address order with
their floors, the free lines (floor < executed), the all-floor overlay,
the software log's header/payload line pairs and the commit counts.  A
frontier then pays for its free lines only: its key merges their
versions into the floors, its overlay is the floor overlay updated with
its free data lines off their floor, and its log entries come from a
cache kept per stream (a line version never changes once written).

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
from typing import Dict, Iterator, List, Optional, Tuple, cast

from repro.core.codegen import REGION_DATA, REGION_SWLOG, SW_LOG_BYTES_PER_LINE
from repro.isa.instructions import CACHE_LINE
from repro.persistence.crash import CrashImage
from repro.persistence.model import WORD, LogEntry
from repro.persistence.stream import LineHistory, StreamState


@dataclass(frozen=True)
class Frontier:
    """One crash cut: a version choice per tracked line, in address
    order, plus the durable log-entry prefix length (hardware schemes; 0
    when unused)."""

    choices: Tuple[Tuple[int, int], ...]
    entry_count: int

    def chosen(self) -> Dict[int, int]:
        return dict(self.choices)


def _entry_bounds(state: StreamState) -> Tuple[int, int]:
    """Reachable durable-prefix bounds for the in-flight log."""
    if state.open_txid is None or not state.entries:
        return 0, 0
    if state.scheme.is_sshl:
        return state.fenced_entries, len(state.entries)
    # ATOM: every entry is durable at store retirement by construction.
    return len(state.entries), len(state.entries)


class FrontierView:
    """What every frontier at one crash point shares.

    ``floors`` holds every tracked line's floor, in address order, and
    ``free`` the lines a crash may expose at more than one version
    (``free_data`` the data lines among them), with ``count`` the raw
    product of their and the log prefix's choices.  ``overlay`` holds
    each data line at its floor and 0 over each initial word of a log or
    flag line: those reach recovery as log entries and the logFlag,
    never as memory words.  ``log_slots`` holds the undo entry of each
    (header, payload) line pair of the software log area with both lines
    at their floor (None where the header names no line), and
    ``free_pairs`` the pairs a frontier can move.

    :func:`frontier_view` builds a view on the first use after a
    transition and caches it on the state.  The log-entry caches pass
    from one view to the next, so they live as long as the state.
    """

    def __init__(self, state: StreamState, previous: Optional["FrontierView"]) -> None:
        self.transitions = state.transitions
        self.layout = layout = state.layout
        self.e_lo, self.e_hi = _entry_bounds(state)
        self.sealed = state.commits_sealed()
        self.executed = state.commits_executed()
        lines = state.lines
        self.flag = lines.get(layout.logflag_addr & ~(CACHE_LINE - 1))
        self.floors: Dict[int, int] = {}
        self.free: List[LineHistory] = []
        self.free_data: List[LineHistory] = []
        self.overlay: Dict[int, int] = {}
        pairs: List[Tuple[LineHistory, Optional[LineHistory]]] = []
        count = self.e_hi - self.e_lo + 1
        for line in sorted(lines):
            history = lines[line]
            floor = history.floor
            versions = history.versions
            self.floors[line] = floor
            data = history.region == REGION_DATA
            if data:
                self.overlay.update(versions[floor])
            else:
                self.overlay.update(dict.fromkeys(versions[0], 0))
                if (
                    history.region == REGION_SWLOG
                    and (line - layout.sw_log_base) % SW_LOG_BYTES_PER_LINE
                    == CACHE_LINE
                ):
                    pairs.append((history, lines.get(line - CACHE_LINE)))
            if floor < len(versions) - 1:
                self.free.append(history)
                count *= len(versions) - floor
                if data:
                    self.free_data.append(history)
        self.count = count

        #: software log entries by (header line, header version, payload
        #: version or -1).
        self.sw_entries: Dict[Tuple[int, int, int], Optional[LogEntry]] = (
            {} if previous is None else previous.sw_entries
        )
        self.log_slots = [self._log_entry(h, p, self.floors) for h, p in pairs]
        self.free_pairs = [
            (index, header, payload)
            for index, (header, payload) in enumerate(pairs)
            if header.floor < header.executed
            or (payload is not None and payload.floor < payload.executed)
        ]
        # The in-flight hardware log only grows until a transaction
        # boundary replaces the list, so its converted entries carry over.
        hw_entries: List[LogEntry] = []
        if previous is not None and previous.hw_source is state.entries:
            hw_entries = previous.hw_entries
        hw_entries.extend(
            entry.to_log_entry() for entry in state.entries[len(hw_entries):]
        )
        self.hw_source = state.entries
        self.hw_entries = hw_entries

    def entry_floor(self, chosen: Dict[int, int]) -> Optional[int]:
        """Smallest durable log prefix compatible with the chosen data
        versions (the log-before-data edges), or None when incompatible.
        ``chosen`` holds a version for every free line."""
        need = self.e_lo
        for history in self.free_data:
            need = max(need, history.needs[chosen[history.line]])
        return need if need <= self.e_hi else None

    def software_log(self, chosen: Dict[int, int]) -> Tuple[int, List[LogEntry]]:
        """The logFlag value and usable undo entries the chosen durable
        contents of the flag and log-area lines hold.

        This is the crux of the software checker: an entry exists only
        if its header line's durable content names a logged data line,
        and its pre-image is whatever the payload line's durable content
        holds — torn pairs and corrupted payloads fall out naturally
        instead of needing special cases.
        """
        logflag = 0
        flag = self.flag
        if flag is not None:
            version = chosen.get(flag.line, flag.floor)
            logflag = flag.versions[version].get(self.layout.logflag_addr, 0)
        slots = self.log_slots.copy()
        for index, header, payload in self.free_pairs:
            slots[index] = self._log_entry(header, payload, chosen)
        return logflag, [entry for entry in slots if entry is not None]

    def _log_entry(
        self,
        header: LineHistory,
        payload: Optional[LineHistory],
        chosen: Dict[int, int],
    ) -> Optional[LogEntry]:
        line = header.line
        version = chosen.get(line, header.floor)
        payload_version = -1 if payload is None else chosen.get(payload.line, payload.floor)
        key = (line, version, payload_version)
        cache = self.sw_entries
        if key in cache:
            return cache[key]
        entry: Optional[LogEntry] = None
        logged_line = header.versions[version].get(line, 0)
        if logged_line:  # else the header never (durably) named one: a torn pair
            words: Dict[int, int] = (
                {} if payload is None else payload.versions[payload_version]
            )
            payload_line = line - CACHE_LINE
            entry = LogEntry(
                block=logged_line,
                grain=CACHE_LINE,
                pre_image={
                    logged_line + delta: words.get(payload_line + delta, 0)
                    for delta in range(0, CACHE_LINE, WORD)
                },
                txid=header.txids[version],
                order=(line - self.layout.sw_log_base) // SW_LOG_BYTES_PER_LINE,
            )
        cache[key] = entry
        return entry


def frontier_view(state: StreamState) -> FrontierView:
    """The view of ``state``'s current position, built on its first use
    after a transition."""
    view = cast(Optional[FrontierView], state.view)
    if view is None or view.transitions != state.transitions:
        view = state.view = FrontierView(state, view)
    return view


def count_frontiers(state: StreamState) -> int:
    """Upper bound on distinct frontiers at this position (the raw
    product, before the log-before-data coupling prunes combinations)."""
    return frontier_view(state).count


def iter_exhaustive(state: StreamState) -> Iterator[Frontier]:
    """Every reachable frontier at the current position."""
    view = frontier_view(state)
    lines = [h.line for h in view.free]
    ranges = [range(h.floor, h.executed + 1) for h in view.free]
    floors, entry_floor, e_hi = view.floors, view.entry_floor, view.e_hi
    for combo in product(*ranges):
        chosen = dict(zip(lines, combo))
        e_min = entry_floor(chosen)
        if e_min is None:
            continue  # data durable that no reachable log prefix covers
        choices = tuple({**floors, **chosen}.items())
        for entry_count in range(e_min, e_hi + 1):
            yield Frontier(choices, entry_count)


def sample_frontiers(state: StreamState, cap: int, seed: int) -> List[Frontier]:
    """Stratified sample of at most ``cap`` reachable frontiers.

    Strata, in order: the all-floor cut (most conservative), the
    all-executed cut (everything drained), every singleton advance (one
    line fully durable, the rest at floor), every singleton lag (one
    line at floor, the rest drained), then seeded random cuts until the
    cap fills.  The extremes and singletons are where single-cause bugs
    live; the random tail covers interactions.
    """
    view = frontier_view(state)
    free = view.free
    e_hi = view.e_hi
    out: List[Frontier] = []
    seen = set()

    def push(chosen: Dict[int, int], entry_count: Optional[int] = None) -> None:
        if len(out) >= cap:
            return
        e_min = view.entry_floor(chosen)
        if e_min is None:
            return
        choices = tuple({**view.floors, **chosen}.items())
        for count in ((e_min, e_hi) if entry_count is None else (entry_count,)):
            if not e_min <= count <= e_hi:
                continue
            key = (choices, count)
            if key not in seen and len(out) < cap:
                seen.add(key)
                out.append(Frontier(choices, count))

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
        e_min = view.entry_floor(chosen)
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
    view = frontier_view(state)
    chosen = frontier.chosen()
    durable = view.overlay.copy()
    for history in view.free_data:
        version = chosen.get(history.line, history.floor)
        if version != history.floor:
            durable.update(history.versions[version])

    if state.scheme.is_software:
        logflag, entries = view.software_log(chosen)
        return CrashImage(
            state.scheme,
            durable,
            entries,
            logflag=logflag,
            inflight_txid=logflag,
            base=state.initial_image,
        )

    return CrashImage(
        state.scheme,
        durable,
        view.hw_entries[: frontier.entry_count],
        end_mark=state.open_txid is None,
        inflight_txid=state.open_txid or 0,
        base=state.initial_image,
    )
