"""Verify sweep: model-check a scheme x workload matrix.

The crash-state analog of :mod:`repro.analysis.lintsweep`: every
failure-safe scheme's lowering of every bundled workload is walked by
the model checker (:mod:`repro.verify`), and the matrix must come back
with zero counterexamples.  Cells run through the shared sweep body,
:func:`~repro.analysis.sweep.matrix_sweep` — process fan-out, and with
a journal or resilience config write-ahead journaling and self-healing
workers — so a long budgeted sweep survives crashes and resumes without
re-checking finished cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.analysis.sweep import matrix_report, matrix_sweep
from repro.core.schemes import Scheme
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import QuarantineRecord, ResilienceConfig
from repro.verify.checker import CheckReport, verify_workload


def verifiable_schemes() -> List[Scheme]:
    """The schemes the checker applies to (failure-safe ones)."""
    return [scheme for scheme in Scheme if scheme.failure_safe]


@dataclass
class VerifySweepResult:
    """Outcome of one model-checking sweep."""

    results: List[CheckReport] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def findings(self) -> int:
        return sum(len(report.findings) for report in self.results)

    @property
    def passed(self) -> bool:
        """True when every combination ran and none found a
        counterexample; a quarantined cell leaves the verdict incomplete."""
        return not self.quarantined and all(report.clean for report in self.results)

    def failing(self) -> List[CheckReport]:
        return [report for report in self.results if not report.clean]

    def report(self, verbose: bool = False) -> str:
        """Matrix report: counterexamples/coverage per scheme x workload."""
        from repro.verify.report import format_finding

        details = [
            f"  total: {self.findings} counterexample(s) "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        ]
        for report in self.results if verbose else self.failing():
            for finding in report.findings:
                details.append(f"  [{report.scheme} x {report.workload}]")
                details.extend("  " + row for row in format_finding(finding))
        return matrix_report(
            "persist-verify sweep: cells are counterexamples@coverage per "
            "scheme x workload",
            self.results,
            lambda report: f"{len(report.findings)}@{report.coverage:.2f}",
            12,
            details,
            self.quarantined,
        )


def verify_sweep(
    schemes: Optional[Sequence[Union[Scheme, str]]] = None,
    workloads: Optional[Sequence[str]] = None,
    threads: int = 1,
    seed: int = 42,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
) -> VerifySweepResult:
    """Model-check every (scheme, workload) combination of the given sets.

    Defaults sweep the failure-safe schemes over all bundled workloads.
    ``budget`` caps the frontiers checked per crash point (see
    :func:`repro.verify.checker.verify_instruction_trace`); cells report
    their coverage in the matrix.  Parallelism, worker healing and
    journal-backed resume are :func:`~repro.analysis.sweep.matrix_sweep`'s.
    """
    for scheme in map(Scheme.parse, schemes or ()):
        if not scheme.failure_safe:
            raise ValueError(
                f"scheme {scheme} is not failure safe; the crash-state "
                f"checker applies to the logging schemes only"
            )
    results, quarantined = matrix_sweep(
        "verify",
        verify_workload,
        CheckReport,
        schemes or verifiable_schemes(),
        workloads,
        dict(
            threads=threads, seed=seed, init_ops=init_ops, sim_ops=sim_ops,
            budget=budget,
        ),
        jobs=jobs,
        resilience=resilience,
        journal=journal,
    )
    return VerifySweepResult(results=results, quarantined=quarantined)
