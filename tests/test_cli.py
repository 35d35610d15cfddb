"""Tests for the command-line interface."""

import pytest

from repro.analysis.verifysweep import verifiable_schemes
from repro.cli import main


def test_run_subcommand(capsys):
    code = main(["run", "--benchmark", "QE", "--scheme", "Proteus",
                 "--ops", "5", "--init", "32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "LLT miss rate" in out


def test_run_verbose(capsys):
    code = main(["run", "--benchmark", "QE", "--scheme", "PMEM",
                 "--ops", "3", "--init", "32", "--verbose"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nvm.write" in out


def test_compare_subcommand(capsys):
    code = main(["compare", "--benchmark", "QE", "--ops", "5", "--init", "32"])
    assert code == 0
    out = capsys.readouterr().out
    for label in ("PMEM", "ATOM", "Proteus", "PMEM+nolog"):
        assert label in out


def test_compare_on_dram(capsys):
    code = main(["compare", "--benchmark", "QE", "--ops", "3", "--init", "32",
                 "--memory", "dram"])
    assert code == 0
    assert "dram" in capsys.readouterr().out


def test_experiment_subcommand(capsys):
    code = main(["experiment", "table4", "--threads", "1", "--scale", "0.05"])
    assert code == 0
    out = capsys.readouterr().out
    assert "LLT miss rate" in out
    assert "paper" in out


def test_unknown_scheme_rejected(capsys):
    code = main(["run", "--scheme", "NotAScheme", "--ops", "2", "--init", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown scheme" in err
    assert "proteus" in err


def test_unknown_workload_rejected(capsys):
    code = main(["run", "--benchmark", "NotABench", "--ops", "2", "--init", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err
    assert "btree" in err


def test_friendly_names_accepted(capsys):
    code = main(["run", "--benchmark", "btree", "--scheme", "sw",
                 "--ops", "2", "--init", "16"])
    assert code == 0
    assert "BT under PMEM" in capsys.readouterr().out


def test_faults_subcommand(capsys):
    code = main(["faults", "--scheme", "proteus", "--workload", "queue",
                 "--crashes", "10", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault campaign" in out
    assert "PASS" in out


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_faults_journal_resume_roundtrip(tmp_path, capsys):
    journal = tmp_path / "faults.jsonl"
    argv = ["faults", "--scheme", "proteus", "--workload", "queue",
            "--crashes", "8", "--seed", "7"]
    assert main(argv + ["--journal", str(journal)]) == 0
    first = capsys.readouterr().out
    assert journal.exists()

    # Resuming a finished campaign replays every case and re-runs none,
    # and the report is byte-identical.
    assert main(argv + ["--journal", str(journal), "--resume"]) == 0
    second = capsys.readouterr().out
    assert second == first


def test_journal_without_resume_refuses_existing_file(tmp_path, capsys):
    journal = tmp_path / "faults.jsonl"
    argv = ["faults", "--scheme", "proteus", "--workload", "queue",
            "--crashes", "4", "--seed", "7", "--journal", str(journal)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 2  # same argv, no --resume: refuse, don't mix
    err = capsys.readouterr().err
    assert "--resume" in err


def test_resume_alone_derives_journal_under_cache_dir(tmp_path, capsys):
    argv = ["experiment", "table4", "--threads", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--resume"]
    assert main(argv) == 0
    derived = tmp_path / "cache" / "journal-experiment-table4.jsonl"
    assert derived.exists()
    first = capsys.readouterr().out

    assert main(argv) == 0
    second = capsys.readouterr().out
    # The results are identical; only the runner-stats footer differs
    # (the resumed run serves every cell from the journal).
    table = lambda out: out.split("runner jobs=")[0]
    assert table(second) == table(first)
    assert "0 simulated" in second
    assert "journal hit(s)" in second


def test_verify_subcommand_single_cell(capsys):
    argv = ["verify", "--scheme", "atom", "--workload", "queue",
            "--ops", "3", "--init", "6"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "persist-verify" in out
    assert "COVERAGE:" in out
    assert "exhaustive" in out


def test_verify_subcommand_json(capsys):
    import json

    argv = ["verify", "--scheme", "atom", "--workload", "queue",
            "--ops", "3", "--init", "6", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "persist-verify"
    assert doc["results"][0]["summary"]["clean"] is True


def test_verify_subcommand_sarif(tmp_path, capsys):
    import json

    sarif_path = tmp_path / "verify.sarif"
    argv = ["verify", "--scheme", "atom", "--workload", "queue",
            "--ops", "3", "--init", "6", "--sarif", str(sarif_path)]
    assert main(argv) == 0
    from repro.lint import validate_sarif

    doc = json.loads(sarif_path.read_text())
    assert validate_sarif(doc) == []
    assert str(sarif_path) in capsys.readouterr().err


def test_verify_sarif_with_json_keeps_stdout_pure_json(tmp_path, capsys):
    import json

    sarif_path = tmp_path / "verify.sarif"
    argv = ["verify", "--scheme", "all", "--workload", "queue",
            "--ops", "3", "--init", "6", "--budget", "64",
            "--sarif", str(sarif_path), "--json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # no notice line ahead of the document
    assert doc["tool"] == "persist-verify"
    assert len(doc["results"]) == len(verifiable_schemes())
    assert sarif_path.exists()
    assert str(sarif_path) in captured.err


def test_verify_rules_catalog(capsys):
    assert main(["verify", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "V001" in out and "V002" in out


def test_verify_rejects_non_failure_safe_scheme(capsys):
    assert main(["verify", "--scheme", "nolog", "--workload", "queue",
                 "--ops", "2", "--init", "4"]) == 2
    assert "failure safe" in capsys.readouterr().err


def test_verify_budget_reports_coverage(capsys):
    argv = ["verify", "--scheme", "pmem", "--workload", "queue",
            "--ops", "3", "--init", "6", "--budget", "8"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "coverage >=" in out
