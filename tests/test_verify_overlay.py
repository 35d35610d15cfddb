"""Overlay crash images get the verdicts whole images get.

persist-verify materializes each crash frontier as an overlay over the
thread's initial image (:func:`repro.verify.frontier.materialize`), and
:func:`repro.persistence.recovery.check_recovery` compares the
recovered overlay with each candidate on the overlay's words plus the
words that candidate changes (:class:`CandidateImages`).  These tests
keep the whole-image materialization as the reference:

* every fresh verdict of a checker run equals ``check_recovery`` on the
  whole image, and the candidate index ``images_equal`` finds there;
* a run on whole images gives an equal :class:`CheckReport`;
* a hypothesis property pins the overlay comparison against
  ``images_equal`` on flattened images, with zeros over base words and
  recovery writes outside every overlay line;
* both walks step over ALUs without changing what they compute.
"""

from dataclasses import replace
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.persistence.recovery as recovery
import repro.verify.checker as checker
from repro.core.codegen import REGION_DATA
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Kind
from repro.isa.trace import InstructionTrace
from repro.lint.engine import Analyzer
from repro.lint.mutate import rebuild
from repro.lint.profiles import profile_for
from repro.lint.runner import lower_for_lint
from repro.persistence.crash import CrashImage, InvariantViolation
from repro.persistence.model import WORD, LogEntry, images_equal
from repro.persistence.recovery import (
    CandidateImages,
    RecoveryError,
    check_recovery,
)
from repro.persistence.stream import StreamState
from repro.verify.checker import CheckReport, verify_instruction_trace
from repro.verify.frontier import Frontier, _software_log_view, materialize
from repro.verify.model import INTERESTING_KINDS
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces
from tests.corpus import VERIFY_CORPUS, clean_op_trace, clean_trace

FAILURE_SAFE = tuple(s for s in Scheme if s.failure_safe)
WORKLOADS = ("QE", "HM", "AT")
#: Small streams, each with the workload's default think chains.
SIZING = dict(threads=1, seed=7, init_ops=7, sim_ops=2)


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
        durable.update(history.content(chosen.get(line, history.floor)))

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
    except (InvariantViolation, RecoveryError):
        return -1
    for k, candidate in enumerate(candidates):
        if images_equal(recovered, candidate):
            return k
    return -1


class Oracle:
    """Checks every fresh verdict of a checker run against its whole image.

    Patches the checker's ``materialize`` to build the whole image beside
    the overlay, and its ``check_recovery`` to judge both.
    """

    def __init__(self, monkeypatch) -> None:
        self.verdicts = 0
        self.outside = 0
        self._whole: Optional[CrashImage] = None
        self._state: Optional[StreamState] = None
        self._source: Optional[CandidateImages] = None
        self._wrapped: Optional[CandidateImages] = None
        monkeypatch.setattr(checker, "materialize", self._materialize)
        monkeypatch.setattr(checker, "check_recovery", self._check)

    def _materialize(self, state: StreamState, frontier: Frontier) -> CrashImage:
        self._state = state
        self._whole = full_image(state, frontier)
        overlay = materialize(state, frontier)
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
    """``run()``'s report with frontiers materialized as whole images."""
    with monkeypatch.context() as patch:
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
    assert oracle.verdicts > 0
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
