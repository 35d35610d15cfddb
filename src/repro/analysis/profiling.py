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
the sweep executor, :func:`~repro.parallel.resilience.resilient_map`,
like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import DEFAULT_SEED, benchmark_traces
from repro.analysis.report import format_table
from repro.core.schemes import FIGURE_ORDER, Scheme
from repro.obs.spans import ATTRIBUTION_CLASSES, attribution_totals, build_tx_spans
from repro.obs.tracer import Tracer
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    resilient_map,
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

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form for the sweep journal."""
        return {
            "scheme": self.scheme.value,
            "workload": self.workload,
            "cycles": self.cycles,
            "transactions": self.transactions,
            "events": self.events,
            "blocked": dict(self.blocked),
        }

    @staticmethod
    def from_payload(payload: Mapping[str, Any]) -> "ProfileCell":
        """Inverse of :meth:`to_payload`; raises on malformed payloads."""
        return ProfileCell(
            scheme=Scheme(str(payload["scheme"])),
            workload=str(payload["workload"]),
            cycles=int(payload["cycles"]),
            transactions=int(payload["transactions"]),
            events=int(payload["events"]),
            blocked={str(k): int(v) for k, v in payload["blocked"].items()},
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
        workloads = sorted({cell.workload for cell in self.cells})
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
            sections.append(
                "\nPARTIAL RESULTS — quarantined cells omitted:"
            )
            sections.extend(
                f"  {record.summary()}" for record in self.quarantined
            )
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


def _profile_task(item: Tuple[Scheme, str, int, float, int]) -> ProfileCell:
    """Module-level task wrapper so cells can cross a process boundary."""
    scheme, workload, threads, scale, seed = item
    return profile_one(scheme, workload, threads=threads, scale=scale, seed=seed)


def _cell_payload(cell: ProfileCell) -> Mapping[str, Any]:
    return cell.to_payload()


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
    through :func:`~repro.parallel.resilience.resilient_map`: with
    ``jobs > 1`` they are traced in worker processes (only the compact
    :class:`ProfileCell` attributions cross back — the raw event
    streams, the memory cost driver here, stay worker-local).  Without a
    ``resilience`` config or a ``journal`` the first failing cell fails
    the sweep.  With either one, crashed or stuck workers are healed,
    exhausted cells are quarantined (reported, not fatal), and a killed
    sweep resumes from the journal.
    """
    from repro.workloads import BENCHMARK_ORDER

    schemes = list(FIGURE_ORDER) if schemes is None else list(schemes)
    workloads = list(BENCHMARK_ORDER) if workloads is None else list(workloads)
    items = [
        (scheme, workload, threads, scale, seed)
        for workload in workloads
        for scheme in schemes
    ]
    keys = [
        f"profile:{scheme.value}:{workload}:t{threads}:s{seed}:x{scale:g}"
        for (scheme, workload, threads, scale, seed) in items
    ]
    values, quarantined = resilient_map(
        _profile_task,
        items,
        keys,
        jobs=jobs,
        config=resilience,
        journal=journal,
        encode=_cell_payload,
        decode=ProfileCell.from_payload,
        descriptions={
            key: {"scheme": item[0].value, "workload": item[1]}
            for key, item in zip(keys, items)
        },
    )
    return ProfileSweepResult(
        cells=[cell for cell in values if cell is not None],
        threads=threads,
        scale=scale,
        seed=seed,
        quarantined=quarantined,
    )
