"""Sweep-journal tests: replay edge cases and campaign resume.

The journal is the crash-safety backbone of every campaign, so the edge
cases a real crash produces get explicit coverage: a torn final record,
duplicate ``done`` records from racing resumes, a journal written by a
different code version, resume-after-resume, and the chaos harness's
kill-after-N-appends hook.  The integration tests hold the headline
contract: a resumed campaign's report is byte-identical to an
uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lintsweep as lintsweep_module
from repro.analysis.lintsweep import lint_sweep
from repro.analysis.profiling import profile_sweep
from repro.analysis.verifysweep import verify_sweep
from repro.core.schemes import Scheme
from repro.faults import campaign as campaign_module
from repro.faults import run_campaign
from repro.parallel.journal import (
    JOURNAL_SCHEMA_VERSION,
    KILL_AFTER_ENV,
    JournalError,
    JournalVersionError,
    SweepJournal,
)
from repro.cli import main
from repro.parallel.resilience import ResilienceConfig, SweepExecutionError
from repro.verify import render_json as verify_json

VERSION = "test-code-version"


def open_journal(path, **kwargs):
    kwargs.setdefault("code_version", VERSION)
    return SweepJournal(path, **kwargs)


def test_roundtrip_replays_every_state(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", {"what": "cell a"}), ("b", None), ("c", None)])
        journal.mark_running("a", 1)
        journal.mark_done("a", {"value": 1})
        journal.mark_running("b", 1)
        journal.mark_failed("b", 1, "boom")
        journal.mark_quarantined("c", 3, "poison")

    again = open_journal(path)
    assert again.status("a") == "done"
    assert again.done_payload("a") == {"value": 1}
    assert again.entry("a").description == {"what": "cell a"}
    assert again.status("b") == "failed"
    assert again.entry("b").error == "boom"
    assert again.is_quarantined("c")
    assert again.unfinished_keys() == ["b"]
    assert again.counts()["done"] == 1


def test_torn_final_record_is_ignored(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", None), ("b", None)])
        journal.mark_done("a", {"value": 1})
        journal.mark_done("b", {"value": 2})

    # Chop the file mid-way through the final record, as a SIGKILL
    # during the append would.
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])

    again = open_journal(path)
    assert again.replay.torn_tail
    assert again.is_done("a")
    assert again.status("b") != "done"
    assert again.unfinished_keys() == ["b"]


def test_damaged_interior_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", None), ("b", None)])
        journal.mark_done("a", {"value": 1})
        journal.mark_done("b", {"value": 2})

    lines = path.read_bytes().splitlines(keepends=True)
    done_a = next(i for i, l in enumerate(lines) if b'"key":"a"' in l and b'"kind":"done"' in l)
    lines[done_a] = b'{"kind":"done","key":"a","payl\xff garbage\n'
    path.write_bytes(b"".join(lines))

    again = open_journal(path)
    assert again.replay.damaged_lines == 1
    # The lost done record just re-runs one deterministic cell.
    assert again.status("a") != "done"
    assert again.is_done("b")


def test_duplicate_done_keeps_first_payload(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", None)])
        journal.mark_done("a", {"value": "first"})
        # In-process mark_done is idempotent once terminal...
        journal.mark_done("a", {"value": "second"})
    assert open_journal(path).done_payload("a") == {"value": "first"}

    # ...and a literal duplicate record on disk (two racing resumes)
    # also keeps the first payload on replay.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"kind": "done", "key": "a", "payload": {"value": "third"}})
            + "\n"
        )
    again = open_journal(path)
    assert again.done_payload("a") == {"value": "first"}
    assert again.replay.duplicate_done == 1


def test_refuses_journal_from_other_code_version(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", None)])
    with pytest.raises(JournalVersionError):
        SweepJournal(path, code_version="some-other-version")


def test_refuses_journal_with_other_schema(tmp_path):
    path = tmp_path / "j.jsonl"
    header = {
        "kind": "header",
        "schema": JOURNAL_SCHEMA_VERSION + 1,
        "code_version": VERSION,
        "label": "sweep",
    }
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(JournalVersionError):
        open_journal(path)


def test_refuses_file_without_usable_header(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("this is not a journal\n")
    with pytest.raises(JournalError):
        open_journal(path)
    # A file truncated down to nothing but a torn line is equally unusable.
    path.write_bytes(b'{"kind":"hea')
    with pytest.raises(JournalError):
        open_journal(path)


def test_missing_and_empty_files_start_fresh(tmp_path):
    journal = open_journal(tmp_path / "absent.jsonl")
    assert journal.entries == {}
    (tmp_path / "empty.jsonl").touch()
    journal = open_journal(tmp_path / "empty.jsonl")
    assert journal.entries == {}


def test_resume_after_resume_is_stable(tmp_path):
    path = tmp_path / "j.jsonl"
    with open_journal(path) as journal:
        journal.begin([("a", None), ("b", None)])
        journal.mark_done("a", {"value": 1})

    with open_journal(path) as second:
        # begin() must not re-journal known keys.
        appended_before = second.appended
        second.begin([("a", None), ("b", None)])
        assert second.appended == appended_before
        assert second.unfinished_keys() == ["b"]
        second.mark_done("b", {"value": 2})

    third = open_journal(path)
    assert third.unfinished_keys() == []
    assert third.done_payload("a") == {"value": 1}
    assert third.done_payload("b") == {"value": 2}


def test_kill_after_env_sigkills_after_n_done_appends(tmp_path):
    """The chaos hook dies by SIGKILL after exactly N durable appends."""
    path = tmp_path / "j.jsonl"
    script = (
        "import sys\n"
        "from repro.parallel.journal import SweepJournal\n"
        "journal = SweepJournal(sys.argv[1], code_version='v')\n"
        "journal.begin([(f'k{i}', None) for i in range(10)])\n"
        "for i in range(10):\n"
        "    journal.mark_done(f'k{i}', {'value': i})\n"
        "print('survived')\n"
    )
    env = dict(os.environ)
    env[KILL_AFTER_ENV] = "3"
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr)
    assert "survived" not in proc.stdout
    again = SweepJournal(path, code_version="v")
    assert again.counts()["done"] == 3
    assert len(again.unfinished_keys()) == 7


# -- campaign resume: reports are byte-identical ---------------------------

FAULTS_KWARGS = dict(
    crashes=6, seed=7, mode="none", init_ops=12, sim_ops=4,
    think_instructions=0,
)


def test_faults_campaign_resume_report_is_byte_identical(tmp_path):
    reference = run_campaign("proteus", "QE", **FAULTS_KWARGS).report()

    path = tmp_path / "faults.jsonl"
    with open_journal(path) as journal:
        first = run_campaign("proteus", "QE", journal=journal, **FAULTS_KWARGS)
    assert first.report() == reference

    # Lose the last durable case (a crash mid-campaign) and resume: the
    # executed case must slot back into the same report bytes.
    lines = path.read_bytes().splitlines(keepends=True)
    done_lines = [i for i, l in enumerate(lines) if b'"kind":"done"' in l]
    del lines[done_lines[-1]]
    path.write_bytes(b"".join(lines))

    with open_journal(path) as journal:
        resumed = run_campaign("proteus", "QE", journal=journal, **FAULTS_KWARGS)
    assert len(resumed.replayed) == len(done_lines) - 1
    assert len(resumed.cases) == 1
    assert resumed.report() == reference

    # Resume-after-resume replays everything and runs nothing.
    with open_journal(path) as journal:
        again = run_campaign("proteus", "QE", journal=journal, **FAULTS_KWARGS)
    assert len(again.cases) == 0
    assert again.report() == reference


def _drop_last_done(path):
    """Lose the journal's last durable result, as a crash would."""
    lines = path.read_bytes().splitlines(keepends=True)
    done_lines = [i for i, l in enumerate(lines) if b'"kind":"done"' in l]
    del lines[done_lines[-1]]
    path.write_bytes(b"".join(lines))
    return len(done_lines)


def _poison_first_case(monkeypatch):
    """Make the campaign's first crash case raise on every attempt."""
    real = campaign_module.run_crash_case
    poisoned = []

    def run_crash_case(scheme, traces, models, plan, **kwargs):
        if plan.crash is not None and not poisoned:
            poisoned.append(plan)
        if poisoned and plan is poisoned[0]:
            raise RuntimeError("injected crash-case failure")
        return real(scheme, traces, models, plan, **kwargs)

    monkeypatch.setattr(campaign_module, "run_crash_case", run_crash_case)


def test_faults_campaign_quarantines_a_case_that_keeps_raising(
    tmp_path, monkeypatch
):
    _poison_first_case(monkeypatch)
    with open_journal(tmp_path / "faults.jsonl") as journal:
        result = run_campaign("proteus", "QE", journal=journal, **FAULTS_KWARGS)
    assert [record.attempts for record in result.quarantined] == [3]
    assert result.crashes == FAULTS_KWARGS["crashes"] - 1
    assert not result.passed
    report = result.report()
    # Every case that ran is clean, but the verdict is incomplete.
    assert report.splitlines()[2] == (
        "cases: 5 (5 consistent, 0 inconsistent, 0 completed) -> FAIL"
    )
    assert report.endswith(
        "  PARTIAL RESULTS — quarantined cells omitted:\n"
        f"    {result.quarantined[0].summary()}\n"
    )
    assert "RuntimeError: injected crash-case failure" in report

    # Without a journal the campaign still fails fast.
    _poison_first_case(monkeypatch)
    with pytest.raises(SweepExecutionError):
        run_campaign("proteus", "QE", **FAULTS_KWARGS)


def test_lint_sweep_with_a_quarantined_cell_fails(monkeypatch, capsys):
    """A quarantined cell leaves the sweep's verdict incomplete: it does
    not pass, its total line says FAIL above the PARTIAL RESULTS footer,
    and ``repro lint`` exits 1 on that verdict alone."""
    real = lintsweep_module.lint_workload

    def lint_workload(scheme, workload, **params):
        if workload == "HM":
            raise RuntimeError("injected lint failure")
        return real(scheme, workload, **params)

    monkeypatch.setattr(lintsweep_module, "lint_workload", lint_workload)
    result = lint_sweep(
        schemes=["pmem"], workloads=["QE", "HM"],
        resilience=ResilienceConfig(max_retries=0),
    )
    assert [record.attempts for record in result.quarantined] == [1]
    # The one cell that ran is clean.
    assert [(lint.workload, lint.ok) for lint in result.results] == [("QE", True)]
    assert not result.passed
    report = result.report()
    assert "  total: 0 error(s), 0 warning(s) -> FAIL\n" in report
    assert report.endswith(
        "  PARTIAL RESULTS — quarantined cells omitted:\n"
        f"    {result.quarantined[0].summary()}\n"
    )

    code = main([
        "lint", "--scheme", "pmem", "--workload", "all",
        "--init", "16", "--ops", "4", "--max-retries", "0",
    ])
    assert code == 1
    assert "-> FAIL" in capsys.readouterr().out


PROFILE_KWARGS = dict(
    schemes=[Scheme.PMEM, Scheme.PROTEUS], workloads=["QE"],
    threads=1, scale=0.02, seed=7,
)


def test_profile_sweep_resume_report_is_byte_identical(tmp_path):
    reference = profile_sweep(**PROFILE_KWARGS).report()

    path = tmp_path / "profile.jsonl"
    with open_journal(path) as journal:
        first = profile_sweep(journal=journal, **PROFILE_KWARGS)
    assert first.report() == reference

    with open_journal(path) as journal:
        resumed = profile_sweep(journal=journal, **PROFILE_KWARGS)
        # Every cell came from the journal: nothing new was appended.
        assert journal.appended == 0
    assert resumed.report() == reference


LINT_KWARGS = dict(
    schemes=["pmem", "proteus"], workloads=["QE"],
    threads=1, seed=42, init_ops=60, sim_ops=6,
)


def test_lint_sweep_resume_report_is_byte_identical(tmp_path):
    reference = lint_sweep(**LINT_KWARGS).report()

    path = tmp_path / "lint.jsonl"
    with open_journal(path) as journal:
        first = lint_sweep(journal=journal, **LINT_KWARGS)
    assert first.report() == reference

    with open_journal(path) as journal:
        resumed = lint_sweep(journal=journal, **LINT_KWARGS)
        assert journal.appended == 0
    assert resumed.report() == reference


VERIFY_KWARGS = dict(
    schemes=["pmem", "proteus"], workloads=["QE", "HM"],
    threads=1, seed=42, init_ops=12, sim_ops=6, budget=64,
)


def _verify_json(sweep):
    """The sweep's JSON report with each cell's wall time zeroed."""
    for report in sweep.results:
        report.wall_time = 0.0
    return verify_json(sweep.results)


def test_verify_sweep_resume_report_is_byte_identical(tmp_path):
    reference = verify_sweep(**VERIFY_KWARGS)

    path = tmp_path / "verify.jsonl"
    with open_journal(path) as journal:
        first = verify_sweep(journal=journal, **VERIFY_KWARGS)
    assert first.report(verbose=True) == reference.report(verbose=True)

    # Lose the last durable cell and resume: one cell re-runs, the rest
    # come back from the journal with every field intact (the matrix
    # text alone shows no detail for clean cells, so compare the JSON).
    cells = _drop_last_done(path)
    with open_journal(path) as journal:
        resumed = verify_sweep(journal=journal, **VERIFY_KWARGS)
        assert journal.counts()["done"] == cells
    assert resumed.report(verbose=True) == reference.report(verbose=True)
    assert _verify_json(resumed) == _verify_json(reference)
