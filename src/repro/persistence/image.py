"""Crash images from line versions, built one way for both crash oracles.

A crash leaves every line a stream has touched at some version of its
:class:`~repro.persistence.stream.LineHistory` and, under the hardware
logging schemes, some of the in-flight transaction's undo entries
durable.  :func:`build_image` turns that choice into the
:class:`~repro.persistence.crash.CrashImage` recovery reads.
persist-verify passes each frontier it enumerates
(:func:`repro.verify.frontier.materialize`); the fault campaign passes
the versions its tracker saw admitted to the persistence domain, with a
dropped drain's line back at an older version, possibly below the floor,
and a torn write's line a per-word mix of two versions
(:class:`repro.faults.tracker.DurabilityTracker`).

The image is an **overlay** over the thread's initial image: each data
line at its chosen version, and 0 over each initial word of a log or
flag line.  Those lines reach recovery as log entries and the logFlag,
never as memory words, so the image holds none of their words.  The
logFlag is the flag line's chosen version's word, and each software-log
(header, payload) line pair holds an entry only if its header names a
logged line: torn pairs and corrupted payloads fall out of the versions
instead of needing special cases.

What the images of one stream position share is built once, as a
:class:`StreamView`: the tracked lines in address order with their
floors, the free lines (floor < executed), the all-floor overlay, the
software log's entries at the floors, the in-flight hardware entries and
the commit counts.  An image then pays for its lines off the floor only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, cast

from repro.core.codegen import REGION_DATA, REGION_SWLOG, SW_LOG_BYTES_PER_LINE
from repro.isa.instructions import CACHE_LINE
from repro.persistence.crash import WORD, CrashImage, LogEntry
from repro.persistence.stream import LineHistory, StreamState


def entry_bounds(state: StreamState) -> Tuple[int, int]:
    """Reachable durable-prefix bounds for the in-flight log."""
    if state.open_txid is None or not state.entries:
        return 0, 0
    if state.scheme.is_sshl:
        return state.fenced_entries, len(state.entries)
    # ATOM: every entry is durable at store retirement by construction.
    return len(state.entries), len(state.entries)


class StreamView:
    """What every crash image at one stream position shares.

    ``floors`` holds every tracked line's floor, in address order, and
    ``free`` the lines a crash may expose at more than one version
    (``free_data`` the data lines among them), with ``count`` the raw
    product of their and the log prefix's choices.  ``overlay`` holds
    each data line at its floor and 0 over each initial word of a log or
    flag line.  ``log_slots`` holds the undo entry of each (header,
    payload) line pair of the software log area with both lines at their
    floor (None where the header names no line).

    :func:`stream_view` builds a view on the first use after a
    transition and caches it on the state.  The log-entry caches pass
    from one view to the next, so they live as long as the state.
    """

    def __init__(self, state: StreamState, previous: Optional["StreamView"]) -> None:
        self.state = state
        self.transitions = state.transitions
        self.layout = layout = state.layout
        self.e_lo, self.e_hi = entry_bounds(state)
        self.sealed = state.commits_sealed()
        self.executed = state.commits_executed()
        lines = state.lines
        self.flag = lines.get(layout.logflag_addr & ~(CACHE_LINE - 1))
        self.floors: Dict[int, int] = {}
        self.free: List[LineHistory] = []
        self.free_data: List[LineHistory] = []
        self.overlay: Dict[int, int] = {}
        #: software log (header, payload) line pairs, and the pair of
        #: each of their lines.
        self.pairs: List[Tuple[LineHistory, Optional[LineHistory]]] = []
        self.pair_of: Dict[int, int] = {}
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
                    self.pair_of[line] = self.pair_of[line - CACHE_LINE] = len(self.pairs)
                    self.pairs.append((history, lines.get(line - CACHE_LINE)))
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
        self.log_slots = [self._log_entry(h, p, {}) for h, p in self.pairs]
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

    def _log_entry(
        self,
        header: LineHistory,
        payload: Optional[LineHistory],
        moved: Mapping[int, int],
    ) -> Optional[LogEntry]:
        line = header.line
        version = moved.get(line, header.floor)
        payload_version = -1 if payload is None else moved.get(payload.line, payload.floor)
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


def stream_view(state: StreamState) -> StreamView:
    """The view of ``state``'s current position, built on its first use
    after a transition."""
    view = cast(Optional[StreamView], state.view)
    if view is None or view.transitions != state.transitions:
        view = state.view = StreamView(state, view)
    return view


def build_image(
    state: StreamState,
    moved: Mapping[int, int],
    log: List[LogEntry],
    torn: Optional[Mapping[int, Tuple[int, Iterable[int]]]] = None,
) -> CrashImage:
    """The crash image of ``state``'s position with every tracked line
    at its floor except the lines ``moved`` maps to another version.

    ``log`` is the durable part of the in-flight hardware log (unused
    under software logging, where the log-area lines carry the log).
    ``torn`` maps a data line whose last write tore to the older version
    and the words of it that stayed: the line reads ``moved``'s version
    (or its floor) except on those words.
    """
    view = stream_view(state)
    lines = state.lines
    durable = view.overlay.copy()
    pairs: Set[int] = set()
    for line, version in moved.items():
        history = lines[line]
        if history.region == REGION_DATA:
            if version < history.floor:
                # Words the floor holds that this older version had not
                # written yet read 0, as they do in the base.
                durable.update(dict.fromkeys(history.versions[history.floor], 0))
            durable.update(history.versions[version])
        elif line in view.pair_of:
            pairs.add(view.pair_of[line])
    for line, (older, lost) in (torn or {}).items():
        words = lines[line].versions[older]
        for word in lost:
            durable[word] = words.get(word, 0)

    if state.scheme.is_software:
        logflag = 0
        flag = view.flag
        if flag is not None:
            version = moved.get(flag.line, flag.floor)
            logflag = flag.versions[version].get(view.layout.logflag_addr, 0)
        slots = view.log_slots
        if pairs:
            slots = slots.copy()
            for index in pairs:
                header, payload = view.pairs[index]
                slots[index] = view._log_entry(header, payload, moved)
        return CrashImage(
            state.scheme,
            durable,
            [entry for entry in slots if entry is not None],
            logflag=logflag,
            inflight_txid=logflag,
            base=state.initial_image,
        )

    return CrashImage(
        state.scheme,
        durable,
        log,
        end_mark=state.open_txid is None,
        inflight_txid=state.open_txid or 0,
        base=state.initial_image,
    )
