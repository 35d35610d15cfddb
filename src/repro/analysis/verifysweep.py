"""Verify sweep: model-check a scheme x workload matrix.

The crash-state analog of :mod:`repro.analysis.lintsweep`: every
failure-safe scheme's lowering of every bundled workload is walked by
the model checker (:mod:`repro.verify`), and the matrix must come back
with zero counterexamples.  Cells run through the sweep executor,
:func:`~repro.parallel.resilience.resilient_map` — process fan-out, and
with a journal or resilience config write-ahead journaling and
self-healing workers — so a long budgeted sweep survives crashes and
resumes without re-checking finished cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.schemes import Scheme
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    resilient_map,
)
from repro.verify.checker import CheckReport, Deviation, Finding, verify_workload
from repro.workloads import BENCHMARK_ORDER


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
        return all(report.clean for report in self.results)

    def failing(self) -> List[CheckReport]:
        return [report for report in self.results if not report.clean]

    def report(self, verbose: bool = False) -> str:
        """Matrix report: counterexamples/coverage per scheme x workload."""
        from repro.verify.report import format_finding

        schemes = sorted({str(r.scheme) for r in self.results})
        workloads = sorted(
            {r.workload for r in self.results},
            key=lambda w: (
                BENCHMARK_ORDER.index(w) if w in BENCHMARK_ORDER else 99,
                w,
            ),
        )
        cell = {(str(r.scheme), r.workload): r for r in self.results}
        width = max(14, max((len(s) for s in schemes), default=14))
        lines = [
            "persist-verify sweep: cells are counterexamples@coverage per "
            "scheme x workload",
            "  " + " " * width + "".join(f"{w:>12s}" for w in workloads),
        ]
        for scheme in schemes:
            row = f"  {scheme:<{width}s}"
            for workload in workloads:
                report = cell.get((scheme, workload))
                if report is None:
                    row += f"{'-':>12s}"
                else:
                    row += f"{f'{len(report.findings)}@{report.coverage:.2f}':>12s}"
            lines.append(row)
        lines.append(
            f"  total: {self.findings} counterexample(s) "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        )
        shown = self.results if verbose else self.failing()
        for report in shown:
            for finding in report.findings:
                lines.append(f"  [{report.scheme} x {report.workload}]")
                lines.extend(
                    "  " + row for row in format_finding(finding)
                )
        if self.quarantined:
            lines.append("  PARTIAL RESULTS — quarantined cells omitted:")
            lines.extend(
                f"    {record.summary()}" for record in self.quarantined
            )
        return "\n".join(lines) + "\n"


def _verify_task(
    item: Tuple[Scheme, str, int, int, Optional[int], Optional[int], Optional[int]]
) -> CheckReport:
    """Module-level task wrapper so results can cross a process boundary."""
    scheme, workload, threads, seed, init_ops, sim_ops, budget = item
    return verify_workload(
        scheme, workload, threads=threads, seed=seed,
        init_ops=init_ops, sim_ops=sim_ops, budget=budget,
    )


def _finding_payload(finding: Finding) -> Mapping[str, Any]:
    return {
        "rule": finding.rule,
        "thread_id": finding.thread_id,
        "position": finding.position,
        "instruction": finding.instruction,
        "message": finding.message,
        "k": finding.k,
        "sealed": finding.sealed,
        "executed_commits": finding.executed_commits,
        "deviations": [
            {
                "line": d.line,
                "region": d.region,
                "version": d.version,
                "floor": d.floor,
                "executed": d.executed,
                "producer": d.producer,
            }
            for d in finding.deviations
        ],
        "entry_count": finding.entry_count,
        "entries_total": finding.entries_total,
        "timeline": list(finding.timeline),
    }


def _verify_payload(report: CheckReport) -> Mapping[str, Any]:
    """JSON-safe form of a verify cell for the sweep journal."""
    return {
        "scheme": report.scheme.value,
        "workload": report.workload,
        "threads": report.threads,
        "instructions": report.instructions,
        "positions": report.positions,
        "frontiers_checked": report.frontiers_checked,
        "frontiers_total": report.frontiers_total,
        "exhaustive": report.exhaustive,
        "wall_time": report.wall_time,
        "findings": [_finding_payload(f) for f in report.findings],
    }


def _verify_from_payload(payload: Mapping[str, Any]) -> CheckReport:
    """Inverse of :func:`_verify_payload`; raises on malformed payloads."""
    return CheckReport(
        scheme=Scheme(str(payload["scheme"])),
        workload=str(payload["workload"]),
        threads=int(payload["threads"]),
        instructions=int(payload["instructions"]),
        positions=int(payload["positions"]),
        frontiers_checked=int(payload["frontiers_checked"]),
        frontiers_total=int(payload["frontiers_total"]),
        exhaustive=bool(payload["exhaustive"]),
        wall_time=float(payload["wall_time"]),
        findings=[
            Finding(
                rule=str(entry["rule"]),
                thread_id=int(entry["thread_id"]),
                position=int(entry["position"]),
                instruction=str(entry["instruction"]),
                message=str(entry["message"]),
                k=int(entry["k"]),
                sealed=int(entry["sealed"]),
                executed_commits=int(entry["executed_commits"]),
                deviations=[
                    Deviation(
                        line=int(dev["line"]),
                        region=str(dev["region"]),
                        version=int(dev["version"]),
                        floor=int(dev["floor"]),
                        executed=int(dev["executed"]),
                        producer=int(dev["producer"]),
                    )
                    for dev in entry["deviations"]
                ],
                entry_count=int(entry["entry_count"]),
                entries_total=int(entry["entries_total"]),
                timeline=[str(row) for row in entry["timeline"]],
            )
            for entry in payload["findings"]
        ],
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
    journal-backed resume behave exactly as in
    :func:`repro.analysis.lintsweep.lint_sweep`.
    """
    scheme_list = (
        [Scheme.parse(s) for s in schemes] if schemes else verifiable_schemes()
    )
    for scheme in scheme_list:
        if not scheme.failure_safe:
            raise ValueError(
                f"scheme {scheme} is not failure safe; the crash-state "
                f"checker applies to the logging schemes only"
            )
    workload_list = list(workloads) if workloads else list(BENCHMARK_ORDER)
    items = [
        (scheme, workload, threads, seed, init_ops, sim_ops, budget)
        for scheme in scheme_list
        for workload in workload_list
    ]
    keys = [
        f"verify:{scheme.value}:{workload}:t{threads}:s{seed}"
        f":i{init_ops}:o{sim_ops}:b{budget}"
        for (scheme, workload, threads, seed, init_ops, sim_ops, budget) in items
    ]
    values, quarantined = resilient_map(
        _verify_task,
        items,
        keys,
        jobs=jobs,
        config=resilience,
        journal=journal,
        encode=_verify_payload,
        decode=_verify_from_payload,
        descriptions={
            key: {"scheme": item[0].value, "workload": item[1]}
            for key, item in zip(keys, items)
        },
    )
    return VerifySweepResult(
        results=[report for report in values if report is not None],
        quarantined=quarantined,
    )
