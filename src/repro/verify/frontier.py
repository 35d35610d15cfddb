"""Crash-frontier enumeration and materialization.

A :class:`Frontier` is one reachable crash cut at one stream position: a
chosen durable write-prefix per tracked line plus, for the hardware
schemes, a durable prefix of the in-flight transaction's log entries.
This module enumerates every frontier the persistency model reaches
(respecting floors and the log-before-data coupling), falls back to
stratified sampling under a state budget, and materializes a chosen
frontier into the :class:`~repro.persistence.crash.CrashImage` the
shared recovery predicate consumes.

A materialized image is an **overlay** over the thread's initial image,
built by :func:`repro.persistence.image.build_image`, the function the
fault campaign uses too: it holds the words of the lines the stream has
touched and leaves every other word to the base, so a frontier costs its
tracked lines, not the whole heap.  Recovery repairs the overlay, and the
atomicity check compares it with each candidate on its own words plus
the words that candidate changed
(:class:`~repro.persistence.recovery.CandidateImages`), which gives the
verdict the whole images would get.

What the frontiers of one crash point share is built once per position,
as a :class:`~repro.persistence.image.StreamView`: the tracked lines in
address order with their floors, the free lines (floor < executed), the
all-floor overlay, the software log's entries at the floors and the
commit counts.  A frontier then pays for its free lines only: its key
merges their versions into the floors, its overlay is the floor overlay
updated with its free data lines off their floor, and its log entries
come from a cache kept per stream (a line version never changes once
written).

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

from repro.persistence.crash import CrashImage
from repro.persistence.image import build_image, stream_view
from repro.persistence.stream import StreamState


@dataclass(frozen=True)
class Frontier:
    """One crash cut: a version choice per tracked line, in address
    order, plus the durable log-entry prefix length (hardware schemes; 0
    when unused)."""

    choices: Tuple[Tuple[int, int], ...]
    entry_count: int

    def chosen(self) -> Dict[int, int]:
        return dict(self.choices)


def count_frontiers(state: StreamState) -> int:
    """Upper bound on distinct frontiers at this position (the raw
    product, before the log-before-data coupling prunes combinations)."""
    return stream_view(state).count


def iter_exhaustive(state: StreamState) -> Iterator[Frontier]:
    """Every reachable frontier at the current position."""
    view = stream_view(state)
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
    view = stream_view(state)
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
    over the thread's initial image
    (:func:`repro.persistence.image.build_image`)."""
    view = stream_view(state)
    chosen = frontier.chosen()
    moved: Dict[int, int] = {}
    for history in view.free:
        version = chosen.get(history.line, history.floor)
        if version != history.floor:
            moved[history.line] = version
    return build_image(state, moved, view.hw_entries[: frontier.entry_count])
