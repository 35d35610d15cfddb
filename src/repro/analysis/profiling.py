"""Bottleneck-attribution profiling over the scheme × workload matrix.

:func:`profile_sweep` runs every (scheme, workload) pair with the tracer
attached, reconstructs transaction spans, and reports where blocked
cycles go — the *explanation* behind the Figure 6 speedups and Figure 7
stall bars: software logging burns cycles at fences, ATOM serializes
retirement behind log acknowledgments (``logging`` attribution via
``retire-adapter``), and Proteus shifts the residual bottleneck back to
plain memory latency.

Sweeps reuse :mod:`repro.analysis.experiments`'s cached per-benchmark
traces, so a profile run after a figure run pays nothing for trace
generation.  Tracing memory is the cost driver here — event streams grow
with instruction count — so the default scale is small; shapes are
stable under scaling just as they are for the figures.  Cells run through
the shared sweep body, :func:`~repro.analysis.sweep.matrix_sweep`, like
every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import DEFAULT_SEED, benchmark_traces
from repro.analysis.report import format_table
from repro.analysis.sweep import matrix_sweep, paper_order
from repro.core.schemes import FIGURE_ORDER, Scheme
from repro.obs.spans import ATTRIBUTION_CLASSES, attribution_totals, build_tx_spans
from repro.obs.tracer import Tracer
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    partial_results_lines,
)
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import run_trace

#: Default operation scale for profiling sweeps (kept small: the traced
#: event stream grows linearly with instructions).
DEFAULT_PROFILE_SCALE = 0.2


@dataclass
class ProfileCell:
    """Attribution for one (scheme, workload) traced run."""

    scheme: Scheme
    workload: str
    cycles: int
    transactions: int
    events: int
    blocked: Dict[str, int] = field(default_factory=dict)

    @property
    def blocked_total(self) -> int:
        return sum(self.blocked.values())

    def share(self, name: str) -> float:
        """Fraction of recorded blocked cycles attributed to ``name``."""
        total = self.blocked_total
        return self.blocked.get(name, 0) / total if total else 0.0

    def bottleneck(self) -> str:
        """Dominant attribution class (``run`` when nothing blocked)."""
        if self.blocked_total == 0:
            return "run"
        order = {name: index for index, name in enumerate(ATTRIBUTION_CLASSES)}
        return max(
            ATTRIBUTION_CLASSES,
            key=lambda name: (self.blocked.get(name, 0), -order[name]),
        )


@dataclass
class ProfileSweepResult:
    """The full matrix plus its report."""

    cells: List[ProfileCell]
    threads: int
    scale: float
    seed: int
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    def cell(self, scheme: Scheme, workload: str) -> Optional[ProfileCell]:
        for cell in self.cells:
            if cell.scheme is scheme and cell.workload == workload:
                return cell
        return None

    def report(self) -> str:
        """Bottleneck-attribution report across the swept matrix."""
        workloads = paper_order(cell.workload for cell in self.cells)
        schemes = [
            scheme
            for scheme in FIGURE_ORDER
            if any(cell.scheme is scheme for cell in self.cells)
        ]
        extra = sorted(
            {cell.scheme for cell in self.cells} - set(schemes),
            key=lambda scheme: scheme.value,
        )
        schemes += extra

        sections: List[str] = [
            f"Bottleneck attribution ({self.threads} thread"
            f"{'s' if self.threads != 1 else ''}, scale {self.scale}, "
            f"seed {self.seed}); blocked cycles per class from traced "
            f"transaction spans:"
        ]
        for name in ATTRIBUTION_CLASSES:
            rows = {
                str(scheme): [
                    100.0 * cell.share(name) if cell is not None else None
                    for workload in workloads
                    for cell in [self.cell(scheme, workload)]
                ]
                for scheme in schemes
            }
            sections.append(
                format_table(
                    f"\nblocked on {name} (% of recorded blocked cycles)",
                    workloads,
                    rows,
                    value_format="{:.1f}",
                )
            )
        dominant = {
            str(scheme): "  ".join(
                (cell.bottleneck() if cell is not None else "-").ljust(7)
                for workload in workloads
                for cell in [self.cell(scheme, workload)]
            )
            for scheme in schemes
        }
        label_width = max(len(label) for label in dominant)
        sections.append("\ndominant bottleneck per cell:")
        sections.append(
            " " * (label_width + 2) + "  ".join(w.ljust(7) for w in workloads)
        )
        for label, row in dominant.items():
            sections.append(label.ljust(label_width + 2) + row)
        if self.quarantined:
            sections.append("")
            sections.extend(partial_results_lines(self.quarantined, indent=""))
        return "\n".join(sections)


def profile_one(
    scheme: Scheme,
    workload: str,
    threads: int = 1,
    scale: float = DEFAULT_PROFILE_SCALE,
    seed: int = DEFAULT_SEED,
) -> ProfileCell:
    """Trace one (scheme, workload) pair and attribute its spans."""
    traces = benchmark_traces(workload, threads, scale, seed)
    tracer = Tracer()
    result = run_trace(
        traces, scheme, fast_nvm_config(cores=threads), tracer=tracer
    )
    spans = build_tx_spans(tracer.events)
    return ProfileCell(
        scheme=scheme,
        workload=workload,
        cycles=result.cycles,
        transactions=len(spans),
        events=tracer.emitted,
        blocked=attribution_totals(spans),
    )


def profile_sweep(
    schemes: Optional[Sequence[Scheme]] = None,
    workloads: Optional[Sequence[str]] = None,
    threads: int = 1,
    scale: float = DEFAULT_PROFILE_SCALE,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
) -> ProfileSweepResult:
    """Trace the scheme × workload matrix and attribute every cell.

    Defaults to the five figure schemes over every benchmark.  Cells run
    workload by workload through
    :func:`~repro.analysis.sweep.matrix_sweep`: with ``jobs > 1`` they
    are traced in worker processes (only the compact
    :class:`ProfileCell` attributions cross back — the raw event
    streams, which dominate memory here, stay worker-local).  Worker
    healing, quarantine (reported, not fatal) and journal-backed resume
    are the shared body's.
    """
    cells, quarantined = matrix_sweep(
        "profile",
        profile_one,
        ProfileCell,
        schemes or FIGURE_ORDER,
        workloads,
        dict(threads=threads, seed=seed, scale=scale),
        jobs=jobs,
        resilience=resilience,
        journal=journal,
        workload_major=True,
    )
    return ProfileSweepResult(
        cells=cells,
        threads=threads,
        scale=scale,
        seed=seed,
        quarantined=quarantined,
    )
