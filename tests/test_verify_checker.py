"""Model-checker tests: clean streams stay clean, seeded bugs are found.

Three claims, each tied to an acceptance criterion of the checker:

* **soundness on clean streams** — exhaustive frontier enumeration over
  every failure-safe scheme's correct lowering yields zero findings;
* **completeness on the verify corpus** — every known-crash-inconsistent
  stream in :data:`tests.corpus.VERIFY_CORPUS` produces a counterexample
  with a concrete minimal frontier, including at least one case the
  ordering linter cannot see;
* **budget agreement** — budgeted (stratified-sampling) runs report
  honest coverage and agree with the exhaustive verdict on the corpus.
"""

from collections import Counter

import pytest

from repro.core.schemes import Scheme
from repro.isa.instructions import (
    Kind,
    clwb,
    log_flush,
    log_load,
    store,
    tx_begin,
    tx_end,
)
from repro.isa.trace import InstructionTrace
from repro.lint import lint_instruction_trace, mutate
from repro.lint.runner import layout_for_thread, lower_for_lint
from repro.persistence.stream import StreamState
from repro.verify import (
    VERIFY_RULES,
    render_json,
    render_text,
    report_dict,
    verify_instruction_trace,
    verify_op_traces,
)
from repro.verify.checker import verify_workload
from repro.verify.model import derive_candidates
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces
from tests.corpus import VERIFY_CORPUS, clean_op_trace, clean_trace

FAILURE_SAFE = tuple(s for s in Scheme if s.failure_safe)


def _verify_case(case, **kwargs):
    op_trace = clean_op_trace()
    scheme = Scheme.parse(case.scheme)
    _, layout = lower_for_lint(op_trace, scheme)
    return verify_instruction_trace(
        case.buggy_trace(),
        scheme,
        layout=layout,
        initial_image=op_trace.initial_image,
        workload=case.name,
        **kwargs,
    )


@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=str)
def test_clean_streams_verify_clean(scheme):
    """No false positives: the correct lowering has no bad frontier."""
    op_trace = clean_op_trace()
    report = verify_op_traces([op_trace], scheme)
    assert report.clean, render_text(report)
    assert report.exhaustive
    assert report.coverage == 1.0
    assert report.positions > 0
    assert report.frontiers_checked > 0
    if scheme.is_sshl:
        # Some block is logged twice in one transaction, so the clean
        # verdict covers recovery's earliest-entry-wins rule.
        lowered, _ = lower_for_lint(op_trace, scheme)
        flushes = Counter(
            (instr.txid, instr.addr)
            for instr in lowered
            if instr.kind is Kind.LOG_FLUSH
        )
        assert max(flushes.values()) > 1


@pytest.mark.parametrize(
    "scheme", (Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS), ids=str
)
def test_broken_recovery_is_counterexampled(monkeypatch, scheme):
    """Recovery that undoes nothing must leave some crash state off every
    transaction boundary: the checker really runs the recovery
    predicate, and a broken protocol fails it."""
    import repro.persistence.recovery as recovery_mod

    def broken_recover(image):
        return dict(image.durable)  # "recovery" that undoes nothing

    monkeypatch.setattr(recovery_mod, "recover", broken_recover)
    report = verify_op_traces([clean_op_trace()], scheme)
    assert "V001" in {finding.rule for finding in report.findings}


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_verify_corpus_case_is_counterexampled(case):
    report = _verify_case(case, max_findings=3)
    assert not report.clean, f"{case.name}: checker missed the seeded bug"
    for finding in report.findings:
        assert finding.rule in VERIFY_RULES
        assert finding.message
        assert finding.timeline, "counterexample must carry its timeline"
        assert "--- crash" in "\n".join(finding.timeline)


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_verify_corpus_minimal_frontier_is_concrete(case):
    """The minimized frontier names real lines with real version windows."""
    report = _verify_case(case, max_findings=1)
    (finding,) = report.findings
    for deviation in finding.deviations:
        assert deviation.floor <= deviation.version <= deviation.executed
        assert deviation.version != deviation.floor, (
            "minimization must strip floor-level (guaranteed) choices"
        )
        assert deviation.region in ("data", "sw-log", "hw-log", "flag")


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_lint_verdict_matches_corpus_annotation(case):
    """``lint_detects`` pins what the ordering linter sees; the checker
    must strictly subsume it on this corpus."""
    result = lint_instruction_trace(case.buggy_trace(), case.scheme)
    if case.lint_detects:
        assert result.errors >= 1, f"{case.name}: lint was expected to flag this"
    else:
        assert result.errors == 0, (
            f"{case.name}: annotated lint-invisible but lint found "
            f"{result.codes()}"
        )


def test_corpus_contains_a_lint_miss():
    """At least one seeded inconsistency must be invisible to lint —
    the gap that justifies the checker."""
    assert any(not case.lint_detects for case in VERIFY_CORPUS)


@pytest.mark.parametrize("case", VERIFY_CORPUS, ids=lambda c: c.name)
def test_budgeted_run_agrees_with_exhaustive(case):
    """Stratified sampling under a tight budget still finds every corpus
    bug, and reports honest sub-1.0 coverage when it actually samples."""
    exhaustive = _verify_case(case, max_findings=1)
    budgeted = _verify_case(case, budget=16, seed=3, max_findings=1)
    assert not exhaustive.clean
    assert not budgeted.clean, (
        f"{case.name}: budget=16 sampling missed a bug the exhaustive "
        f"run proves exists"
    )
    assert budgeted.frontiers_checked <= exhaustive.frontiers_checked
    if not budgeted.exhaustive:
        assert budgeted.coverage < 1.0


def test_budgeted_clean_stream_stays_clean():
    scheme = Scheme.parse("pmem")
    op_trace = clean_op_trace()
    report = verify_op_traces([op_trace], scheme, budget=8, seed=5)
    assert report.clean, render_text(report)
    assert 0.0 < report.coverage <= 1.0


def test_non_failure_safe_scheme_is_rejected():
    trace = clean_trace("pmem")
    with pytest.raises(ValueError, match="failure safe"):
        verify_instruction_trace(trace, Scheme.PMEM_NOLOG)


def test_bad_budget_is_rejected():
    trace = clean_trace("pmem")
    with pytest.raises(ValueError, match="budget"):
        verify_instruction_trace(trace, Scheme.PMEM, budget=0)


def test_layout_threading_matches_lint():
    """The checker and the linter must agree on the per-thread layout."""
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, Scheme.PMEM)
    assert layout == layout_for_thread(op_trace.thread_id)
    report = verify_instruction_trace(
        lowered, Scheme.PMEM, layout=layout,
        initial_image=op_trace.initial_image,
    )
    assert report.clean


def test_report_json_shape():
    case = next(c for c in VERIFY_CORPUS if not c.lint_detects)
    report = _verify_case(case, max_findings=2)
    doc = report_dict(report)
    assert doc["version"] == 1
    assert doc["tool"] == "persist-verify"
    assert doc["summary"]["findings"] == len(report.findings) > 0
    assert doc["summary"]["clean"] is False
    for entry in doc["findings"]:
        assert entry["rule"] in VERIFY_RULES
        assert entry["timeline"]
    # the multi-report wrapper nests the same documents
    import json

    wrapped = json.loads(render_json([report, report]))
    assert len(wrapped["results"]) == 2
    assert wrapped["results"][0] == doc


# -- durability with equal candidates -------------------------------------------------
#
# A committed transaction that leaves the data image unchanged makes two
# candidates equal.  Recovery then matches both, and the durability
# check must accept the crash point when either lies in [sealed,
# executed], not judge it by the first match alone.


def _equal_first_candidates(scheme):
    """The clean QE stream over an initial image that already holds what
    its first transaction writes, so candidates 0 and 1 are equal."""
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, scheme)
    image = dict(derive_candidates(lowered, scheme, layout, op_trace.initial_image)[1])
    candidates = derive_candidates(lowered, scheme, layout, image)
    assert candidates[0] == candidates[1] != candidates[2]
    return lowered, layout, image


@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=str)
def test_a_commit_that_leaves_the_image_unchanged_verifies_clean(scheme):
    """AT at init_ops 6 commits a transaction that changes no word: its
    derived candidates 0 and 1 are equal."""
    (op_trace,) = generate_traces(
        resolve_workload("AT"), threads=1, seed=7, init_ops=6, sim_ops=3
    )
    lowered, layout = lower_for_lint(op_trace, scheme)
    candidates = derive_candidates(lowered, scheme, layout, op_trace.initial_image)
    assert candidates[0] == candidates[1]
    report = verify_workload(scheme, "AT", threads=1, seed=7, init_ops=6, sim_ops=3)
    assert report.clean, render_text(report)


@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=str)
def test_equal_candidates_across_a_sealed_commit_give_no_finding(scheme):
    """Once the first commit seals, recovery lands on candidates 0 and 1
    at once; 1 is in range."""
    lowered, layout, image = _equal_first_candidates(scheme)
    report = verify_instruction_trace(lowered, scheme, layout=layout, initial_image=image)
    assert report.clean, render_text(report)


@pytest.mark.parametrize("scheme", (Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS), ids=str)
def test_an_image_below_the_sealed_commits_still_gives_v002(scheme):
    """With every data clwb dropped, a sealed commit's writes need not
    survive: the recovered image matches only candidate 0.  Over equal
    candidates 0 and 1, the finding reports the first, once two commits
    have sealed."""
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, scheme)
    lossy = mutate.drop_clwb_tagged_every(lowered, "", 1)
    report = verify_instruction_trace(
        lossy, scheme, layout=layout, initial_image=op_trace.initial_image
    )
    durability = [finding for finding in report.findings if finding.rule == "V002"]
    assert durability
    assert all(finding.k < finding.sealed for finding in durability)
    assert any(finding.k == 0 and finding.sealed == 1 for finding in durability)
    assert durability[0].message == (
        f"recovered image corresponds to {durability[0].k} committed "
        f"transactions, but the crash point requires "
        f"{durability[0].sealed}..{durability[0].executed_commits} (sealed "
        f"commits must survive; never-committed ones must not appear)"
    )

    _, _, image = _equal_first_candidates(scheme)
    report = verify_instruction_trace(lossy, scheme, layout=layout, initial_image=image)
    durability = [finding for finding in report.findings if finding.rule == "V002"]
    assert durability
    assert all(finding.k == 0 and finding.sealed >= 2 for finding in durability)


# -- the log-before-data edge ---------------------------------------------------------


def test_a_pair_covers_only_its_own_transactions_stores():
    """A Proteus store may persist once the newest pair of its own
    transaction covering its block has: a pair from an earlier
    transaction covers nothing.  Transaction 2 stores with no pair, so
    a crash may expose the store with no undo entry to roll it back."""
    layout = layout_for_thread(0)
    addr = next(i.addr for i in clean_trace("proteus") if i.kind is Kind.STORE)
    trace = InstructionTrace(thread_id=0)
    trace.extend([
        tx_begin(1),
        log_load(addr, txid=1),
        log_flush(addr, txid=1, dep=1),
        store(addr, value=1, txid=1),
        clwb(addr, txid=1),
        tx_end(1),
        tx_begin(2),
        store(addr, value=2, txid=2),
    ])
    state = StreamState(Scheme.PROTEUS, layout)
    for index, instr in enumerate(trace):
        state.apply(index, instr)
    assert state.lines[addr & ~63].needs == [0, 1, 0]

    report = verify_instruction_trace(trace, Scheme.PROTEUS, layout=layout)
    assert [(finding.rule, finding.position) for finding in report.findings] == [
        ("V002", len(trace) - 1)
    ]
