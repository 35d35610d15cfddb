"""Lint sweep: run ``persist-lint`` over a scheme x workload matrix.

This is the correctness gate CI runs before any codegen change lands:
every bundled scheme's lowering of every bundled workload must produce
zero error-severity diagnostics.  The report is a compact matrix (one
cell per combination) followed by any diagnostics, deterministic for a
fixed seed.  Cells run through the sweep executor,
:func:`~repro.parallel.resilience.resilient_map`, like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.schemes import Scheme
from repro.lint.diagnostics import Diagnostic, LintResult
from repro.lint.runner import lint_workload
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    resilient_map,
)
from repro.workloads import BENCHMARK_ORDER


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
        """True when no combination produced an error diagnostic."""
        return all(result.ok for result in self.results)

    def failing(self) -> List[LintResult]:
        return [result for result in self.results if not result.ok]

    def report(self, verbose: bool = False) -> str:
        """Matrix report: one row per scheme, one column per workload."""
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
            "persist-lint sweep: cells are errors/warnings per "
            "scheme x workload",
            "  " + " " * width + "".join(f"{w:>10s}" for w in workloads),
        ]
        for scheme in schemes:
            row = f"  {scheme:<{width}s}"
            for workload in workloads:
                result = cell.get((scheme, workload))
                row += f"{'-':>10s}" if result is None else (
                    f"{f'{result.errors}/{result.warnings}':>10s}"
                )
            lines.append(row)
        lines.append(
            f"  total: {self.errors} error(s), {self.warnings} warning(s) "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        )
        shown = self.failing() if not verbose else self.results
        for result in shown:
            for diag in result.diagnostics:
                if verbose or diag.severity.value == "error":
                    lines.append(
                        f"  [{result.scheme} x {result.workload}] {diag.format()}"
                    )
        if self.quarantined:
            lines.append("  PARTIAL RESULTS — quarantined cells omitted:")
            lines.extend(
                f"    {record.summary()}" for record in self.quarantined
            )
        return "\n".join(lines) + "\n"


def _lint_task(
    item: Tuple[Scheme, str, int, int, Optional[int], Optional[int]]
) -> LintResult:
    """Module-level task wrapper so results can cross a process boundary."""
    scheme, workload, threads, seed, init_ops, sim_ops = item
    return lint_workload(
        scheme, workload, threads=threads, seed=seed,
        init_ops=init_ops, sim_ops=sim_ops,
    )


def _lint_payload(result: LintResult) -> Mapping[str, Any]:
    """JSON-safe form of a lint cell for the sweep journal."""
    return {
        "scheme": result.scheme.value,
        "workload": result.workload,
        "threads": result.threads,
        "instructions": result.instructions,
        "diagnostics": [
            {
                "code": diag.code,
                "thread_id": diag.thread_id,
                "index": diag.index,
                "message": diag.message,
                "addr": diag.addr,
                "txid": diag.txid,
            }
            for diag in result.diagnostics
        ],
    }


def _lint_from_payload(payload: Mapping[str, Any]) -> LintResult:
    """Inverse of :func:`_lint_payload`; raises on malformed payloads."""
    return LintResult(
        scheme=Scheme(str(payload["scheme"])),
        workload=str(payload["workload"]),
        threads=int(payload["threads"]),
        instructions=int(payload["instructions"]),
        diagnostics=[
            Diagnostic(
                code=str(entry["code"]),
                thread_id=int(entry["thread_id"]),
                index=int(entry["index"]),
                message=str(entry["message"]),
                addr=None if entry["addr"] is None else int(entry["addr"]),
                txid=int(entry["txid"]),
            )
            for entry in payload["diagnostics"]
        ],
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

    Defaults sweep all bundled schemes over all bundled workloads.  Cells
    run through :func:`~repro.parallel.resilience.resilient_map`: with
    ``jobs > 1`` they are linted in worker processes, and result order
    (and therefore the report) is identical either way.  Without a
    ``resilience`` config or a ``journal`` the first failing cell fails
    the sweep.  With either one, crashed or stuck workers are healed,
    exhausted cells are quarantined (rendered as ``-`` in the matrix),
    and a killed sweep resumes from the journal.
    """
    scheme_list = [Scheme.parse(s) for s in schemes] if schemes else list(Scheme)
    workload_list = list(workloads) if workloads else list(BENCHMARK_ORDER)
    items = [
        (scheme, workload, threads, seed, init_ops, sim_ops)
        for scheme in scheme_list
        for workload in workload_list
    ]
    keys = [
        f"lint:{scheme.value}:{workload}:t{threads}:s{seed}"
        f":i{init_ops}:o{sim_ops}"
        for (scheme, workload, threads, seed, init_ops, sim_ops) in items
    ]
    values, quarantined = resilient_map(
        _lint_task,
        items,
        keys,
        jobs=jobs,
        config=resilience,
        journal=journal,
        encode=_lint_payload,
        decode=_lint_from_payload,
        descriptions={
            key: {"scheme": item[0].value, "workload": item[1]}
            for key, item in zip(keys, items)
        },
    )
    return LintSweepResult(
        results=[result for result in values if result is not None],
        quarantined=quarantined,
    )
