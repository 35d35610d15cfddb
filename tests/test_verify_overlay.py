"""Overlay crash images get the verdicts whole images get.

persist-verify materializes each crash frontier as an overlay over the
thread's initial image (:func:`repro.verify.frontier.materialize`), and
:func:`repro.persistence.recovery.check_recovery` compares the
recovered overlay with each candidate on the overlay's words plus the
words that candidate changes (:class:`CandidateImages`).  What the
frontiers of one crash point share is built once per position
(:class:`~repro.persistence.image.StreamView`).  These tests keep two
references: the whole-image materialization, and the per-frontier path
the view replaced (a key over every tracked line, an overlay built line
by line, the software log rebuilt from every log-area line):

* at every crash point the checker enumerates the reference's frontier
  sequence, and every fresh verdict's overlay, logFlag and log entries
  are the reference's;
* every fresh verdict of a checker run equals ``check_recovery`` on the
  whole image, and the candidate index ``images_equal`` finds there;
* a run on the reference path gives an equal :class:`CheckReport`;
* views belong to their state: streams walked in turns each get their
  own frontiers;
* a hypothesis property pins the overlay comparison against
  ``images_equal`` on flattened images, with zeros over base words and
  recovery writes outside every overlay line;
* both walks step over ALUs without changing what they compute.
"""

import random
from dataclasses import replace
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.persistence.recovery as recovery
import repro.verify.checker as checker
from repro.core.codegen import REGION_DATA, REGION_SWLOG, SW_LOG_BYTES_PER_LINE
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Kind
from repro.isa.trace import InstructionTrace
from repro.lint.engine import Analyzer
from repro.lint.mutate import rebuild
from repro.lint.profiles import profile_for
from repro.lint.runner import lower_for_lint
from repro.persistence.crash import (
    WORD,
    CrashImage,
    LogEntry,
    images_equal,
)
from repro.persistence.image import entry_bounds
from repro.persistence.recovery import (
    CandidateImages,
    RecoveryError,
    check_recovery,
)
from repro.persistence.stream import LineHistory, StreamState
from repro.verify.checker import CheckReport, verify_instruction_trace
from repro.verify.frontier import (
    Frontier,
    count_frontiers,
    iter_exhaustive,
    materialize,
    sample_frontiers,
)
from repro.verify.model import INTERESTING_KINDS
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces
from tests.corpus import VERIFY_CORPUS, clean_op_trace, clean_trace

FAILURE_SAFE = tuple(s for s in Scheme if s.failure_safe)
WORKLOADS = ("QE", "HM", "AT")
#: Small streams, each with the workload's default think chains.
SIZING = dict(threads=1, seed=7, init_ops=7, sim_ops=2)


# -- the per-frontier reference ---------------------------------------------------
#
# The path StreamView replaced: each frontier is keyed by a tuple over
# every tracked line, and its image is built line by line with the
# software log rebuilt from every log-area line's chosen version.


def _free_lines(state: StreamState) -> List[LineHistory]:
    return [
        history
        for _, history in sorted(state.lines.items())
        if history.floor < history.executed
    ]


def reference_count(state: StreamState) -> int:
    total = 1
    for history in _free_lines(state):
        total *= history.executed - history.floor + 1
    e_lo, e_hi = entry_bounds(state)
    return total * (e_hi - e_lo + 1)


def _frontier(state: StreamState, chosen: Dict[int, int], entry_count: int) -> Frontier:
    """A frontier keyed by a tuple over every tracked line."""
    choices = tuple(
        (line, chosen.get(line, history.floor))
        for line, history in sorted(state.lines.items())
    )
    return Frontier(choices=choices, entry_count=entry_count)


def _entry_floor(state: StreamState, chosen: Dict[int, int]) -> Optional[int]:
    e_lo, e_hi = entry_bounds(state)
    need = e_lo
    for line, version in chosen.items():
        history = state.lines[line]
        if history.region != REGION_DATA:
            continue
        need = max(need, history.needs[version])
    return need if need <= e_hi else None


def reference_exhaustive(state: StreamState) -> Iterator[Frontier]:
    free = _free_lines(state)
    _, e_hi = entry_bounds(state)
    ranges = [range(h.floor, h.executed + 1) for h in free]
    for combo in product(*ranges):
        chosen = {h.line: v for h, v in zip(free, combo)}
        e_min = _entry_floor(state, chosen)
        if e_min is None:
            continue
        for entry_count in range(e_min, e_hi + 1):
            yield _frontier(state, chosen, entry_count)


def reference_sample(state: StreamState, cap: int, seed: int) -> List[Frontier]:
    free = _free_lines(state)
    _, e_hi = entry_bounds(state)
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
        chosen = {h.line: rng.randint(h.floor, h.executed) for h in free}
        e_min = _entry_floor(state, chosen)
        if e_min is None:
            continue
        push(chosen, rng.randint(e_min, e_hi))
    return out


def _software_log_view(
    state: StreamState, chosen: Dict[int, int]
) -> Tuple[int, List[LogEntry]]:
    """The logFlag and undo entries, rebuilt from every log-area line's
    chosen version."""
    layout = state.layout
    flag_line = layout.logflag_addr & ~(CACHE_LINE - 1)
    flag_history = state.lines.get(flag_line)
    logflag = 0
    if flag_history is not None:
        version = chosen.get(flag_line, flag_history.floor)
        logflag = flag_history.versions[version].get(layout.logflag_addr, 0)

    entries: List[LogEntry] = []
    for line, history in sorted(state.lines.items()):
        if history.region != REGION_SWLOG:
            continue
        offset = line - layout.sw_log_base
        if offset % SW_LOG_BYTES_PER_LINE != CACHE_LINE:
            continue  # payload line; consumed via its header below
        version = chosen.get(line, history.floor)
        header = history.versions[version]
        logged_line = header.get(line, 0)
        if not logged_line:
            continue  # header never (durably) written: a torn pair
        payload_line = line - CACHE_LINE
        payload_history = state.lines.get(payload_line)
        payload: Dict[int, int] = {}
        if payload_history is not None:
            payload_version = chosen.get(payload_line, payload_history.floor)
            payload = payload_history.versions[payload_version]
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


def reference_materialize(state: StreamState, frontier: Frontier) -> CrashImage:
    """The overlay built line by line, with the log rebuilt per frontier."""
    chosen = frontier.chosen()
    durable: Dict[int, int] = {}
    for line, history in state.lines.items():
        if history.region == REGION_DATA:
            durable.update(history.versions[chosen.get(line, history.floor)])
        else:
            durable.update(dict.fromkeys(history.versions[0], 0))

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


# -- the whole-image reference ----------------------------------------------------

#: The base of every whole image built here.  One object, so that
#: ``check_recovery`` takes candidates wrapped over it as they are.
WHOLE: Dict[int, int] = {}


def full_image(state: StreamState, frontier: Frontier) -> CrashImage:
    """The whole-image materialization verify used before overlays.

    Every word of an untracked line comes from the initial image, each
    tracked data line is at its chosen version, and the image holds no
    word of a tracked log or flag line.
    """
    chosen = frontier.chosen()
    durable: Dict[int, int] = {
        word: value
        for word, value in state.initial_image.items()
        if state.lines.get(word & ~(CACHE_LINE - 1)) is None
    }
    for line, history in state.lines.items():
        if history.region != REGION_DATA:
            continue
        durable.update(history.versions[chosen.get(line, history.floor)])

    if state.scheme.is_software:
        logflag, entries = _software_log_view(state, chosen)
        return CrashImage(
            state.scheme,
            durable,
            entries,
            logflag=logflag,
            inflight_txid=logflag,
            base=WHOLE,
        )

    entries = [entry.to_log_entry() for entry in state.entries[: frontier.entry_count]]
    return CrashImage(
        state.scheme,
        durable,
        entries,
        end_mark=state.open_txid is None,
        inflight_txid=state.open_txid or 0,
        base=WHOLE,
    )


def whole_candidates(images: List[Dict[int, int]], _base=None) -> CandidateImages:
    """Candidates over :data:`WHOLE`, whatever base the caller names."""
    return CandidateImages(images, WHOLE)


def flattened(image: CrashImage) -> Dict[int, int]:
    """An image's durable words with its base filled in."""
    return {**image.base, **image.durable}


def whole_image_k(image: CrashImage, candidates: List[Dict[int, int]]) -> int:
    """Recover a whole image and return the first candidate
    ``images_equal`` matches; -1 when none does or recovery fails."""
    assert image.base is WHOLE and not WHOLE
    try:
        recovered = recovery.recover(image)
    except RecoveryError:
        return -1
    for k, candidate in enumerate(candidates):
        if images_equal(recovered, candidate):
            return k
    return -1


class Oracle:
    """Checks a checker run against both references.

    Patches the checker's frontier enumeration to compare each crash
    point's frontiers with the per-frontier reference's, its
    ``materialize`` to compare each overlay with the reference's and to
    build the whole image beside it, and its ``check_recovery`` to judge
    both images.
    """

    def __init__(self, monkeypatch) -> None:
        self.positions = 0
        self.verdicts = 0
        self.outside = 0
        self._whole: Optional[CrashImage] = None
        self._state: Optional[StreamState] = None
        self._source: Optional[CandidateImages] = None
        self._wrapped: Optional[CandidateImages] = None
        monkeypatch.setattr(checker, "count_frontiers", self._count)
        monkeypatch.setattr(checker, "iter_exhaustive", self._exhaustive)
        monkeypatch.setattr(checker, "sample_frontiers", self._sample)
        monkeypatch.setattr(checker, "materialize", self._materialize)
        monkeypatch.setattr(checker, "check_recovery", self._check)

    def _count(self, state: StreamState) -> int:
        count = count_frontiers(state)
        assert count == reference_count(state)
        return count

    def _exhaustive(self, state: StreamState) -> Iterator[Frontier]:
        frontiers = list(iter_exhaustive(state))
        # Choices and entry counts, in order.
        assert frontiers == list(reference_exhaustive(state))
        self.positions += 1
        return iter(frontiers)

    def _sample(self, state: StreamState, cap: int, seed: int) -> List[Frontier]:
        frontiers = sample_frontiers(state, cap, seed)
        assert frontiers == reference_sample(state, cap, seed)
        self.positions += 1
        return frontiers

    def _materialize(self, state: StreamState, frontier: Frontier) -> CrashImage:
        self._state = state
        self._whole = full_image(state, frontier)
        overlay = materialize(state, frontier)
        # The overlay's words, the logFlag, the end mark and every log
        # entry's order, block, pre-image and txid.
        assert overlay == reference_materialize(state, frontier)
        assert overlay.base is state.initial_image
        assert images_equal(flattened(overlay), self._whole.durable)
        return overlay

    def _check(self, image: CrashImage, candidates: CandidateImages):
        verdict = check_recovery(image, candidates)
        whole, state = self._whole, self._state
        assert whole is not None and state is not None
        if self._source is not candidates:
            self._source = candidates
            self._wrapped = whole_candidates(candidates.images)
        assert verdict == check_recovery(whole, self._wrapped)
        assert verdict.k == whole_image_k(whole, candidates.images)
        self.verdicts += 1
        # Verdicts whose recovery wrote a line the stream never tracked.
        self.outside += any(
            word & ~(CACHE_LINE - 1) not in state.lines
            for word in recovery.recover(image)
        )
        return verdict


def whole_image_report(monkeypatch, run) -> CheckReport:
    """``run()``'s report on the reference path: frontiers enumerated
    per frontier and materialized as whole images."""
    with monkeypatch.context() as patch:
        patch.setattr(checker, "count_frontiers", reference_count)
        patch.setattr(checker, "iter_exhaustive", reference_exhaustive)
        patch.setattr(checker, "sample_frontiers", reference_sample)
        patch.setattr(checker, "materialize", full_image)
        patch.setattr(checker, "CandidateImages", whole_candidates)
        return run()


def assert_reports_equal(report: CheckReport, reference: CheckReport) -> None:
    assert report.instructions == reference.instructions
    assert report.positions == reference.positions
    assert report.frontiers_checked == reference.frontiers_checked
    assert report.frontiers_total == reference.frontiers_total
    assert report.exhaustive == reference.exhaustive
    # Rule, position, message, deviations, timeline: every field.
    assert report.findings == reference.findings


def check_both_ways(monkeypatch, run) -> CheckReport:
    reference = whole_image_report(monkeypatch, run)
    with monkeypatch.context() as patch:
        oracle = Oracle(patch)
        report = run()
    assert oracle.positions > 0 and oracle.verdicts > 0
    assert_reports_equal(report, reference)
    return report


def _verify_workload_run(scheme, workload, budget):
    (op_trace,) = generate_traces(resolve_workload(workload), **SIZING)
    lowered, layout = lower_for_lint(op_trace, scheme)

    def run() -> CheckReport:
        return verify_instruction_trace(
            lowered,
            scheme,
            layout=layout,
            initial_image=op_trace.initial_image,
            workload=workload,
            budget=budget,
        )

    return run


@pytest.mark.parametrize("budget", (None, 8), ids=("exhaustive", "budget8"))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=str)
def test_workload_verdicts_match_whole_images(monkeypatch, scheme, workload, budget):
    report = check_both_ways(
        monkeypatch, _verify_workload_run(scheme, workload, budget)
    )
    assert report.clean


def _clean_stream_run(scheme: Scheme, trace=None, initial_image=None, **kwargs):
    """A checker run over the corpus's QE stream for ``scheme``,
    optionally with another trace or initial image."""
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, scheme)

    def run() -> CheckReport:
        return verify_instruction_trace(
            lowered if trace is None else trace,
            scheme,
            layout=layout,
            initial_image=(
                op_trace.initial_image if initial_image is None else initial_image
            ),
            **kwargs,
        )

    return run


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_corpus_verdicts_match_whole_images(monkeypatch, case):
    run = _clean_stream_run(
        Scheme.parse(case.scheme), trace=case.buggy_trace(), max_findings=1
    )
    report = check_both_ways(monkeypatch, run)
    assert not report.clean


@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=str)
def test_broken_recovery_verdicts_match_whole_images(monkeypatch, scheme):
    """Recovery that undoes nothing fails on overlays as on whole images."""
    monkeypatch.setattr(recovery, "recover", lambda image: dict(image.durable))
    report = check_both_ways(
        monkeypatch, _verify_workload_run(scheme, "QE", budget=None)
    )
    assert "V001" in {finding.rule for finding in report.findings}


def test_initial_words_on_log_lines_read_as_zero(monkeypatch):
    """A tracked log or flag line's initial words are 0 in the image.

    The whole image holds no word of those lines, so an initial value
    there reads as 0 while every candidate keeps it: no frontier that
    tracks such a line can match.  The overlay must say the same.
    """
    scheme = Scheme.PMEM
    op_trace = clean_op_trace()
    _, layout = lower_for_lint(op_trace, scheme)
    initial = dict(op_trace.initial_image)
    initial[layout.logflag_addr + WORD] = 0x5A
    initial[layout.sw_log_base + WORD] = 0xA5
    report = check_both_ways(
        monkeypatch, _clean_stream_run(scheme, initial_image=initial)
    )
    assert "V001" in {finding.rule for finding in report.findings}


def _header_naming_an_unstored_line(scheme: Scheme) -> InstructionTrace:
    """A clean stream whose first log header names a data line the
    stream never stores, so recovery writes outside every tracked line."""
    trace = clean_trace(str(scheme).lower())
    op_trace = clean_op_trace()
    stored = {
        instr.addr & ~(CACHE_LINE - 1)
        for instr in trace
        if instr.kind is Kind.STORE
    }
    untouched = min(
        word & ~(CACHE_LINE - 1)
        for word, value in op_trace.initial_image.items()
        if value and word & ~(CACHE_LINE - 1) not in stored
    )
    target = next(
        index
        for index, instr in enumerate(trace)
        if instr.kind is Kind.STORE and instr.tag == "log-hdr"
    )
    override = replace(trace[target], value=untouched)
    return rebuild(trace, range(len(trace)), overrides={target: override})


def test_recovery_writes_outside_tracked_lines_are_compared(monkeypatch):
    """A mutated header can make recovery write a line the stream never
    tracked; the comparison must include the recovered overlay's keys."""
    scheme = Scheme.PMEM
    run = _clean_stream_run(
        scheme, trace=_header_naming_an_unstored_line(scheme), max_findings=3
    )
    reference = whole_image_report(monkeypatch, run)
    with monkeypatch.context() as patch:
        oracle = Oracle(patch)
        report = run()
    assert_reports_equal(report, reference)
    assert oracle.outside > 0
    assert "V001" in {finding.rule for finding in report.findings}


# -- views belong to their state ----------------------------------------------------


def test_streams_walked_in_turns_keep_their_own_views():
    """Each state caches its own view: stepping one stream between two
    reads of another changes nothing the other enumerates or
    materializes."""
    walks = []
    for scheme, workload in (
        (Scheme.PMEM, "QE"), (Scheme.PMEM, "HM"), (Scheme.PROTEUS, "QE")
    ):
        (op_trace,) = generate_traces(resolve_workload(workload), **SIZING)
        lowered, layout = lower_for_lint(op_trace, scheme)
        walks.append((lowered, StreamState(scheme, layout, op_trace.initial_image)))
    checked = 0
    for index in range(max(len(trace) for trace, _ in walks)):
        stepped = []
        for trace, state in walks:
            if index < len(trace):
                state.apply(index, trace[index])
                if trace[index].kind in INTERESTING_KINDS:
                    stepped.append(state)
        for state in stepped:
            assert count_frontiers(state) == reference_count(state)
            frontiers = sample_frontiers(state, 4, index)
            assert frontiers == reference_sample(state, 4, index)
            for frontier in frontiers:
                assert materialize(state, frontier) == reference_materialize(
                    state, frontier
                )
                checked += 1
    assert checked > 500


# -- the overlay comparison against images_equal -----------------------------------

#: Words on eight lines, so overlays leave some lines to the base.
WORDS = st.integers(min_value=0, max_value=63).map(lambda i: 0x1000 + i * WORD)
VALUES = st.integers(min_value=0, max_value=3)
IMAGES = st.dictionaries(WORDS, VALUES, max_size=12)


@st.composite
def overlay_cases(draw):
    base = draw(IMAGES)
    candidates = [dict(base)]
    for delta in draw(st.lists(IMAGES, max_size=4)):
        candidates.append({**candidates[-1], **delta})
    # The overlay holds one candidate's changes and some of its other
    # words, then maybe random values, and zeros over some base words.
    target = draw(st.sampled_from(candidates))
    overlay = {
        word: target.get(word, 0)
        for word in target.keys() | base.keys()
        if target.get(word, 0) != base.get(word, 0)
    }
    overlay.update({word: target.get(word, 0) for word in draw(st.lists(WORDS))})
    if draw(st.booleans()):
        overlay.update(draw(IMAGES))
    if base:
        zeroed = draw(st.lists(st.sampled_from(sorted(base)), max_size=3))
        overlay.update(dict.fromkeys(zeroed, 0))
    overlay_lines = {word & ~(CACHE_LINE - 1) for word in overlay}
    # Undo entries, some only over words outside every overlay line.
    entries = []
    for order, pre_image in enumerate(draw(st.lists(IMAGES, max_size=3))):
        if draw(st.booleans()):
            pre_image = {
                word: value
                for word, value in pre_image.items()
                if word & ~(CACHE_LINE - 1) not in overlay_lines
            }
        entries.append(
            LogEntry(
                block=0x1000, grain=CACHE_LINE, pre_image=pre_image, txid=1,
                order=order,
            )
        )
    scheme = draw(st.sampled_from((Scheme.PMEM, Scheme.PROTEUS)))
    live = draw(st.booleans())
    if scheme.is_software:
        fields = dict(logflag=1 if live else 0, inflight_txid=1 if live else 0)
    else:
        fields = dict(end_mark=not live, inflight_txid=1)
    return base, candidates, overlay, entries, scheme, fields


@settings(max_examples=400, deadline=None)
@given(overlay_cases())
def test_overlay_verdict_matches_images_equal(case):
    base, candidates, overlay, entries, scheme, fields = case
    image = CrashImage(scheme, overlay, entries, base=base, **fields)
    whole = CrashImage(scheme, flattened(image), entries, base=WHOLE, **fields)
    expected = whole_image_k(whole, candidates)

    verdict = check_recovery(image, CandidateImages(candidates, base))
    assert verdict.k == expected
    assert verdict.consistent == (expected >= 0)
    # A plain list, or candidates wrapped over another base object, are
    # wrapped anew over the image's own base: same verdict.
    assert check_recovery(image, candidates) == verdict
    assert check_recovery(image, CandidateImages(candidates, dict(base))) == verdict
    assert check_recovery(whole, candidates) == verdict


# -- the walks step over ALUs -------------------------------------------------------

STREAMS = [
    (scheme, workload)
    for scheme in FAILURE_SAFE
    for workload in WORKLOADS
]


@pytest.mark.parametrize("scheme,workload", STREAMS, ids=lambda v: str(v))
def test_alu_step_over_keeps_both_walks(scheme, workload):
    """Visiting every ALU changes nothing: lint's one walk (its rules
    and the persistency model they read) gives the same diagnostics,
    and verify's symbolic state the same digest and load value at every
    position where either is read."""
    (op_trace,) = generate_traces(resolve_workload(workload), **SIZING)
    lowered, layout = lower_for_lint(op_trace, scheme)
    profile = profile_for(scheme)
    assert sum(instr.kind is Kind.ALU for instr in lowered) > len(lowered) // 2

    every = Analyzer(lowered, profile, layout)
    for index, instr in enumerate(lowered):
        every._visit(index, instr)
    every._finalize()
    stepped = Analyzer(lowered, profile, layout)
    assert stepped.run() == every.diagnostics
    assert stepped.model.digest() == every.model.digest()

    stepping = StreamState(scheme, layout, op_trace.initial_image)
    visiting = StreamState(scheme, layout, op_trace.initial_image)
    for index, instr in enumerate(lowered):
        visiting.apply(index, instr)
        if instr.kind is Kind.ALU:
            continue
        stepping.apply(index, instr)
        assert stepping._last_load_value == visiting._last_load_value
        if instr.kind in INTERESTING_KINDS:
            assert stepping.digest() == visiting.digest()
