"""Golden lint and verify reports: the static checkers pinned against their past.

A change to the instruction format, to lowering or to either persistency
model must leave every diagnostic and every verifier verdict unchanged.
This module checks that: each report is rendered as text, JSON and
SARIF, and each rendering is reduced to a SHA-256.  The reports cover

* persist-lint on every case of ``tests.corpus.CORPUS``;
* persist-verify on every case of ``tests.corpus.VERIFY_CORPUS``, with
  the report's wall time zeroed first, since it is the only field that
  is not deterministic;
* persist-lint on every case of ``tests.corpus.VERIFY_CORPUS`` too;
* persist-lint on every ``Scheme`` x ``WORKLOADS`` stream, at a small
  sizing that keeps each workload's default think chains (the corpus
  lowers with ``think_instructions=0``).

``tests/golden/diagnostics_digests.json`` holds the pinned digests.
Only ``python tools/pin_golden_stats.py`` rewrites it; do that after a
deliberate change to a rule or to the verifier, never to make a
refactor pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.schemes import Scheme
from repro.lint import lint_instruction_trace
from repro.lint.report import render_json as lint_json
from repro.lint.report import render_text as lint_text
from repro.lint.runner import lint_op_traces, lower_for_lint
from repro.lint.sarif import lint_to_sarif
from repro.verify import render_json as verify_json
from repro.verify import render_text as verify_text
from repro.verify import verify_instruction_trace, verify_to_sarif
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces
from tests.corpus import CORPUS, VERIFY_CORPUS, clean_op_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "diagnostics_digests.json"

#: Scheme x workload streams: two threads, a few measured operations,
#: each preceded by the workload's default think chain.
STREAM_SEED = 7
STREAM_THREADS = 2
STREAM_SIZING = dict(init_ops=16, sim_ops=4)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _renderings(text: str, json_doc: str, sarif_doc: Dict) -> Dict[str, str]:
    return {
        "text": _sha256(text),
        "json": _sha256(json_doc),
        "sarif": _sha256(json.dumps(sarif_doc, indent=2)),
    }


def corpus_digests(case) -> Dict[str, str]:
    """Digests of the lint reports on one ``CORPUS`` or ``VERIFY_CORPUS``
    case."""
    result = lint_instruction_trace(case.buggy_trace(), case.scheme, workload=case.name)
    return _renderings(
        lint_text(result, verbose=True), lint_json([result]), lint_to_sarif([result])
    )


def verify_corpus_digests(case) -> Dict[str, str]:
    """Digests of the verify reports on one ``VERIFY_CORPUS`` case."""
    op_trace = clean_op_trace()
    scheme = Scheme.parse(case.scheme)
    _, layout = lower_for_lint(op_trace, scheme)
    report = verify_instruction_trace(
        case.buggy_trace(),
        scheme,
        layout=layout,
        initial_image=op_trace.initial_image,
        workload=case.name,
    )
    report.wall_time = 0.0
    return _renderings(
        verify_text(report, verbose=True), verify_json([report]), verify_to_sarif([report])
    )


@functools.lru_cache(maxsize=None)
def _stream_traces(workload: str):
    return generate_traces(
        WORKLOADS[workload], threads=STREAM_THREADS, seed=STREAM_SEED, **STREAM_SIZING
    )


def stream_digests(workload: str, scheme: Scheme) -> Dict[str, str]:
    """Digests of the lint reports on one scheme x workload stream."""
    result = lint_op_traces(_stream_traces(workload), scheme, workload=workload)
    return _renderings(
        lint_text(result, verbose=True), lint_json([result]), lint_to_sarif([result])
    )


#: Every pinned report: its key in the golden file, and how to render it.
REPORTS: Dict[str, Callable[[], Dict[str, str]]] = {
    **{f"corpus/{c.name}": functools.partial(corpus_digests, c) for c in CORPUS},
    **{
        f"verify-corpus/{c.name}": functools.partial(verify_corpus_digests, c)
        for c in VERIFY_CORPUS
    },
    **{
        f"lint-verify-corpus/{c.name}": functools.partial(corpus_digests, c)
        for c in VERIFY_CORPUS
    },
    **{
        f"stream/{workload}/{scheme.value}": functools.partial(stream_digests, workload, scheme)
        for workload in WORKLOADS
        for scheme in Scheme
    },
}


def compute_digests() -> Dict[str, Dict[str, str]]:
    return {key: render() for key, render in REPORTS.items()}


def _load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_exactly_the_reports():
    assert sorted(_load_golden()) == sorted(REPORTS)


@pytest.mark.parametrize("key", REPORTS)
def test_report_matches_golden(key):
    assert REPORTS[key]() == _load_golden()[key], (
        f"{key}: report changed; if the rule or verifier change is "
        f"deliberate, re-pin with tools/pin_golden_stats.py"
    )
