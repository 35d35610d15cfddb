"""Lint sweep: run ``persist-lint`` over a scheme x workload matrix.

This is the correctness gate CI runs before any codegen change lands:
every bundled scheme's lowering of every bundled workload must produce
zero error-severity diagnostics.  The report is a compact matrix (one
cell per combination) followed by any diagnostics, deterministic for a
fixed seed.  Cells run through the shared sweep body,
:func:`~repro.analysis.sweep.matrix_sweep`, like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.analysis.sweep import matrix_report, matrix_sweep
from repro.core.schemes import Scheme
from repro.lint.diagnostics import LintResult
from repro.lint.runner import lint_workload
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import QuarantineRecord, ResilienceConfig


@dataclass
class LintSweepResult:
    """Outcome of one lint sweep."""

    results: List[LintResult] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(result.errors for result in self.results)

    @property
    def warnings(self) -> int:
        return sum(result.warnings for result in self.results)

    @property
    def passed(self) -> bool:
        """True when every combination ran and none produced an error
        diagnostic; a quarantined cell leaves the verdict incomplete."""
        return not self.quarantined and all(result.ok for result in self.results)

    def failing(self) -> List[LintResult]:
        return [result for result in self.results if not result.ok]

    def report(self, verbose: bool = False) -> str:
        """Matrix report: one row per scheme, one column per workload."""
        details = [
            f"  total: {self.errors} error(s), {self.warnings} warning(s) "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        ]
        for result in self.results if verbose else self.failing():
            details.extend(
                f"  [{result.scheme} x {result.workload}] {diag.format()}"
                for diag in result.diagnostics
                if verbose or diag.severity.value == "error"
            )
        return matrix_report(
            "persist-lint sweep: cells are errors/warnings per "
            "scheme x workload",
            self.results,
            lambda result: f"{result.errors}/{result.warnings}",
            10,
            details,
            self.quarantined,
        )


def lint_sweep(
    schemes: Optional[Sequence[Union[Scheme, str]]] = None,
    workloads: Optional[Sequence[str]] = None,
    threads: int = 1,
    seed: int = 42,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
) -> LintSweepResult:
    """Lint every (scheme, workload) combination of the given sets.

    Defaults sweep all bundled schemes over all bundled workloads.
    Parallelism, worker healing and journal-backed resume are
    :func:`~repro.analysis.sweep.matrix_sweep`'s; quarantined cells
    render as ``-`` in the matrix.
    """
    results, quarantined = matrix_sweep(
        "lint",
        lint_workload,
        LintResult,
        schemes or list(Scheme),
        workloads,
        dict(threads=threads, seed=seed, init_ops=init_ops, sim_ops=sim_ops),
        jobs=jobs,
        resilience=resilience,
        journal=journal,
    )
    return LintSweepResult(results=results, quarantined=quarantined)
