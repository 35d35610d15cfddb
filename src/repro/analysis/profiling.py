"""Bottleneck-attribution profiling over the scheme × workload matrix.

:func:`profile_sweep` runs every (scheme, workload) pair untraced and
reports where the blocked cycles inside transactions go, summing the
cores' stall accounts (``OooCore.stall``) — the *explanation* behind the
Figure 6 speedups and Figure 7 stall bars: software logging burns cycles
at fences, ATOM serializes retirement behind log acknowledgments
(``logging`` attribution via ``retire-adapter``), and Proteus shifts the
residual bottleneck back to plain memory latency.

Sweeps reuse :mod:`repro.analysis.experiments`'s cached per-benchmark
traces, so a profile run after a figure run pays nothing for trace
generation.  Cells run through the shared sweep body,
:func:`~repro.analysis.sweep.matrix_sweep`, like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import DEFAULT_SEED, benchmark_traces
from repro.analysis.report import format_table
from repro.analysis.sweep import matrix_sweep, paper_order
from repro.core.schemes import FIGURE_ORDER, Scheme
from repro.obs.spans import ATTRIBUTION_CLASSES
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    partial_results_lines,
)
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import Simulator

#: Default operation scale for profiling sweeps; shares are stable under
#: scaling, as the figures' shapes are.
DEFAULT_PROFILE_SCALE = 0.2


@dataclass
class ProfileCell:
    """Attribution for one (scheme, workload) run."""

    scheme: Scheme
    workload: str
    cycles: int
    transactions: int
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
        # max() keeps the first of equal classes.
        return max(ATTRIBUTION_CLASSES, key=lambda name: self.blocked.get(name, 0))


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
            f"seed {self.seed}); blocked cycles per class from transaction "
            f"spans:"
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
    """Run one (scheme, workload) pair and read its cores' stall accounts."""
    traces = benchmark_traces(workload, threads, scale, seed)
    sim = Simulator(fast_nvm_config(cores=threads), scheme, traces)
    result = sim.run()
    return ProfileCell(
        scheme=scheme,
        workload=workload,
        cycles=result.cycles,
        transactions=sum(len(core.trace.transactions) for core in sim.cores),
        blocked={name: sum(core.blocked[i] for core in sim.cores)
                 for i, name in enumerate(ATTRIBUTION_CLASSES)},
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
    """Run the scheme × workload matrix and attribute every cell.

    Defaults to the five figure schemes over every benchmark.  Cells run
    workload by workload through
    :func:`~repro.analysis.sweep.matrix_sweep`: with ``jobs > 1`` in
    worker processes, from which only the compact :class:`ProfileCell`
    attributions cross back.  Worker healing, quarantine (reported, not
    fatal) and journal-backed resume are the shared body's.
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
