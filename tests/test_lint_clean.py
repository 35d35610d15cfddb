"""Clean-bill lint checks: every bundled scheme x workload combination
must lower to streams persist-lint accepts with zero errors.

Warnings are allowed — Proteus deliberately emits redundant logging
pairs (the LLT squashes them dynamically), which the static analyzer
reports as W101 — but any *error* here means codegen broke the ordering
contract the recovery story depends on.
"""

import pytest

from repro.analysis.lintsweep import lint_sweep
from repro.core.schemes import Scheme
from repro.lint import WARNING_CODES, lint_workload
from repro.workloads import BENCHMARK_ORDER

#: Keep generation cheap; the contract is structural, not size dependent.
SMALL = dict(init_ops=12, sim_ops=6)

ALL_SCHEMES = tuple(Scheme)


@pytest.mark.parametrize("workload", BENCHMARK_ORDER)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_scheme_workload_lints_clean(scheme, workload):
    result = lint_workload(scheme, workload, threads=1, seed=42, **SMALL)
    assert result.errors == 0, [d.format() for d in result.diagnostics][:5]
    assert all(d.code in WARNING_CODES for d in result.diagnostics)
    assert result.ok


@pytest.mark.parametrize("scheme", ("pmem", "proteus", "atom"))
def test_multithreaded_streams_lint_clean(scheme):
    result = lint_workload(scheme, "HM", threads=3, seed=11, **SMALL)
    assert result.threads == 3
    assert result.errors == 0, result.codes()


def test_lint_sweep_matrix_passes():
    sweep = lint_sweep(
        schemes=("pmem", "proteus"),
        workloads=("QE", "BT"),
        threads=1,
        seed=42,
        init_ops=12,
        sim_ops=6,
    )
    assert sweep.passed
    assert sweep.errors == 0
    assert len(sweep.results) == 4
    report = sweep.report()
    assert "PASS" in report
    for name in ("QE", "BT"):
        assert name in report


def test_lint_sweep_reports_failures():
    """A sweep over a scheme with manufactured bugs must FAIL loudly."""
    from repro.lint import lint_instruction_trace
    from repro.lint.mutate import drop_clwb_tagged
    from tests.corpus import clean_trace

    buggy = drop_clwb_tagged(clean_trace("pmem"), "log")
    result = lint_instruction_trace(buggy, "pmem", workload="QE")
    assert result.errors >= 1
    assert not result.ok
