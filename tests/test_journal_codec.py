"""The journal codec: every sweep result survives a ``done`` record exactly.

A resumed sweep serves finished cells from their journaled payloads, so
its report is byte-identical only if decoding gives back exactly the
object that was encoded.  :func:`repro.parallel.journal.to_payload` and
:func:`~repro.parallel.journal.from_payload` are the one codec for every
sweep result; this module round-trips each kind through JSON, as the
journal stores it:

* every ``tests.corpus.CORPUS`` lint result and every scheme's
  ``lint_workload`` on HM;
* every ``tests.corpus.VERIFY_CORPUS`` check report, findings and
  deviations included;
* a ``ProfileCell`` and a fault campaign's ``ReplayedCase``.

A damaged payload must raise ``KeyError``, ``TypeError`` or
``ValueError``: the sweep executor answers those by re-running the cell.
"""

import json

import pytest

from repro.analysis.profiling import ProfileCell
from repro.core.schemes import Scheme
from repro.faults.campaign import ReplayedCase
from repro.lint import lint_instruction_trace
from repro.lint.diagnostics import LintResult
from repro.lint.runner import lint_workload, lower_for_lint
from repro.parallel.journal import from_payload, to_payload
from repro.verify import verify_instruction_trace
from repro.verify.checker import CheckReport
from tests.corpus import CORPUS, VERIFY_CORPUS, clean_op_trace

#: What a damaged payload may raise: the executor re-runs on each.
DAMAGED = (KeyError, TypeError, ValueError)


def _through_json(value):
    return json.loads(json.dumps(to_payload(value)))


def _verify_report(case) -> CheckReport:
    op_trace = clean_op_trace()
    scheme = Scheme.parse(case.scheme)
    _, layout = lower_for_lint(op_trace, scheme)
    return verify_instruction_trace(
        case.buggy_trace(),
        scheme,
        layout=layout,
        initial_image=op_trace.initial_image,
        workload=case.name,
    )


def _damaged(payload, *path_and_value):
    """A deep copy of ``payload`` with one entry replaced or removed."""
    *path, last, value = path_and_value
    copy = json.loads(json.dumps(payload))
    target = copy
    for step in path:
        target = target[step]
    if value is KeyError:
        del target[last]
    else:
        target[last] = value
    return copy


def test_codec_round_trips_every_sweep_result_and_rejects_damage():
    lint_results = [
        lint_instruction_trace(case.buggy_trace(), case.scheme, workload=case.name)
        for case in CORPUS
    ] + [
        lint_workload(scheme, "HM", threads=2, seed=7, init_ops=16, sim_ops=4)
        for scheme in Scheme
    ]
    reports = [_verify_report(case) for case in VERIFY_CORPUS]
    assert any(diag.addr is None for r in lint_results for diag in r.diagnostics)
    cell = ProfileCell(
        scheme=Scheme.PROTEUS, workload="QE", cycles=48_211, transactions=9,
        blocked={"logging": 120, "memory": 3_407, "fence": 0},
    )
    replayed = ReplayedCase(index=3, outcome="consistent", lines=["  [   3] x"])

    for value in [*lint_results, *reports, cell, replayed]:
        assert from_payload(type(value), _through_json(value)) == value

    lint = _through_json(next(r for r in lint_results if r.diagnostics))
    report = _through_json(
        next(r for r in reports if r.findings and r.findings[0].deviations)
    )
    damaged = [
        (LintResult, _damaged(lint, "threads", KeyError)),
        (LintResult, _damaged(lint, "diagnostics", KeyError)),  # has a default
        (LintResult, _damaged(lint, "diagnostics", 0, "code", KeyError)),
        (LintResult, _damaged(lint, "diagnostics", 0, "txid", KeyError)),
        (LintResult, _damaged(lint, "threads", "2")),
        (LintResult, _damaged(lint, "threads", True)),
        (LintResult, _damaged(lint, "diagnostics", 5)),
        (LintResult, _damaged(lint, "diagnostics", 0, "addr", "0x40")),
        (LintResult, _damaged(lint, "scheme", "no-such-scheme")),
        (LintResult, _damaged(lint, "diagnostics", 0, "code", "Z999")),
        (LintResult, ["not", "a", "mapping"]),
        (CheckReport, _damaged(report, "findings", 0, "deviations", 0, "line", KeyError)),
        (CheckReport, _damaged(report, "findings", 0, "timeline", [1, 2])),
        (CheckReport, _damaged(report, "wall_time", KeyError)),
        (CheckReport, _damaged(report, "exhaustive", 1)),
        (CheckReport, _damaged(report, "scheme", "pmem+magic")),
        (ProfileCell, _damaged(_through_json(cell), "blocked", "memory", "3407")),
        (ReplayedCase, _damaged(_through_json(replayed), "lines", "one line")),
    ]
    for cls, payload in damaged:
        with pytest.raises(DAMAGED):
            from_payload(cls, payload)
