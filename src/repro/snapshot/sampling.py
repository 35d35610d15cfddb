"""SMARTS-style interval sampling over checkpointed simulation.

Instead of simulating a cell's full measured stream in detail, the
sampler picks ``intervals`` evenly spaced offsets into the stream,
fast-forwards to each one through a *functional* checkpoint (workload
state advanced, caches warmed, log cursors computed — no timing), runs
a detailed ``warmup_ops`` window to repair the approximate
microarchitectural state, then measures a detailed ``measure_ops``
window.  Per-metric means are reported with Student-t confidence
intervals over the interval samples; when a metric's relative
half-width exceeds ``max_rel_ci`` the report *refuses* (raises
:class:`SamplingError`) rather than returning a number it cannot
stand behind — the SMARTS contract (Wunderlich et al., ISCA'03).

Functional checkpoints are content addressed, so repeated sampling of
the same cell (sweeps, CI) reuses them via the
:class:`~repro.snapshot.checkpoint.CheckpointStore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.parallel.cellspec import CellSpec
from repro.sim.simulator import Simulator
from repro.snapshot.checkpoint import (
    CheckpointStore,
    create_checkpoint,
    workloads_for,
)
from repro.snapshot.format import SnapshotError
from repro.snapshot.state import restore_machine


class SamplingError(SnapshotError):
    """A sampled estimate's confidence interval exceeds the threshold."""


@dataclass(frozen=True)
class SamplingParams:
    """Sampling-run geometry and acceptance threshold."""

    intervals: int = 5
    warmup_ops: int = 10
    measure_ops: int = 20
    confidence: float = 0.95
    max_rel_ci: float = 0.02

    def validate(self, sim_ops: int) -> None:
        if self.intervals < 2:
            raise ValueError("sampling needs at least 2 intervals for a CI")
        if self.warmup_ops < 0 or self.measure_ops < 1:
            raise ValueError("warmup_ops must be >= 0 and measure_ops >= 1")
        if self.confidence not in _T_TABLE:
            raise ValueError(
                f"confidence must be one of {sorted(_T_TABLE)}, "
                f"got {self.confidence}"
            )
        if not 0 < self.max_rel_ci:
            raise ValueError("max_rel_ci must be positive")
        if self.warmup_ops + self.measure_ops > sim_ops:
            raise ValueError(
                f"warmup ({self.warmup_ops}) + measure ({self.measure_ops}) "
                f"ops exceed the cell's {sim_ops} measured ops"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "intervals": self.intervals,
            "warmup_ops": self.warmup_ops,
            "measure_ops": self.measure_ops,
            "confidence": self.confidence,
            "max_rel_ci": self.max_rel_ci,
        }


#: Two-sided Student-t critical values by confidence level, indexed by
#: degrees of freedom 1..30; larger df falls back to the normal quantile.
_T_TABLE: Dict[float, List[float]] = {
    0.90: [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
        1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
        1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ],
    0.95: [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ],
    0.99: [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
        2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ],
}

_NORMAL_QUANTILE: Dict[float, float] = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided critical value for ``dof`` degrees of freedom."""
    table = _T_TABLE[confidence]
    if dof < 1:
        raise ValueError("confidence intervals need at least 2 samples")
    if dof <= len(table):
        return table[dof - 1]
    return _NORMAL_QUANTILE[confidence]


@dataclass
class MetricEstimate:
    """One sampled metric with its confidence interval."""

    name: str
    mean: float
    std: float
    ci_half_width: float
    rel_ci: float
    samples: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "mean": self.mean,
            "std": self.std,
            "ci_half_width": self.ci_half_width,
            "rel_ci": self.rel_ci,
            "samples": list(self.samples),
        }


def estimate_metric(
    name: str, samples: List[float], confidence: float
) -> MetricEstimate:
    """Mean, sample std, and t-based CI half-width for one metric."""
    count = len(samples)
    if count < 2:
        raise ValueError(f"metric {name!r} needs >= 2 samples, got {count}")
    mean = sum(samples) / count
    variance = sum((value - mean) ** 2 for value in samples) / (count - 1)
    std = math.sqrt(variance)
    half = t_critical(confidence, count - 1) * std / math.sqrt(count)
    if mean:
        rel = half / abs(mean)
    else:
        rel = 0.0 if half == 0.0 else math.inf
    return MetricEstimate(
        name=name, mean=mean, std=std, ci_half_width=half, rel_ci=rel,
        samples=list(samples),
    )


@dataclass
class SampleReport:
    """Outcome of one sampled simulation of one cell."""

    cell: CellSpec
    params: SamplingParams
    offsets: List[int]
    estimates: Dict[str, MetricEstimate]
    detailed_ops: int  #: ops actually simulated in detail (warmup + measure)

    def check(self) -> None:
        """Refuse the report when any CI exceeds the threshold."""
        failing = [
            estimate
            for estimate in self.estimates.values()
            if estimate.rel_ci > self.params.max_rel_ci
        ]
        if failing:
            detail = ", ".join(
                f"{estimate.name}: ±{estimate.rel_ci:.1%} of mean "
                f"{estimate.mean:.4g}"
                for estimate in failing
            )
            raise SamplingError(
                f"sampled estimate(s) exceed the ±{self.params.max_rel_ci:.0%} "
                f"confidence threshold at {self.params.confidence:.0%} "
                f"confidence — add intervals or widen windows ({detail})"
            )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "params": self.params.to_dict(),
            "offsets": list(self.offsets),
            "estimates": {
                name: estimate.to_dict()
                for name, estimate in sorted(self.estimates.items())
            },
            "detailed_ops": self.detailed_ops,
        }


def sample_offsets(sim_ops: int, params: SamplingParams) -> List[int]:
    """Evenly spaced interval start offsets across the measured stream."""
    usable = sim_ops - params.warmup_ops - params.measure_ops
    return [
        (index * usable) // (params.intervals - 1)
        for index in range(params.intervals)
    ]


def _nvm_writes(counters: Mapping[str, int]) -> int:
    return sum(
        value for name, value in counters.items() if name.startswith("nvm.write.")
    )


def run_sampled(
    cell: CellSpec,
    params: Optional[SamplingParams] = None,
    store: Optional[CheckpointStore] = None,
    strict: bool = True,
) -> SampleReport:
    """Sample one cell; see the module docstring for the procedure.

    ``store`` caches the per-offset functional checkpoints;  ``strict``
    raises :class:`SamplingError` when a CI exceeds the threshold
    (otherwise the report is returned for the caller to judge).
    """
    params = params if params is not None else SamplingParams()
    params.validate(cell.sim_ops)
    offsets = sample_offsets(cell.sim_ops, params)
    per_metric: Dict[str, List[float]] = {}
    for offset in offsets:
        if store is not None:
            checkpoint = store.get_or_create(cell, offset, kind="functional")
        else:
            checkpoint = create_checkpoint(cell, offset, kind="functional")
        workloads = workloads_for(cell)
        for workload in workloads:
            workload.skip(offset)
        warm_traces = [
            workload.generate_segment(params.warmup_ops) for workload in workloads
        ]
        sim = restore_machine(checkpoint.machine, warm_traces)
        sim.run(max_cycles=cell.max_cycles)
        cycles_before = sim.engine.cycle
        counters_before = dict(sim.stats.counters)
        measure_traces = [
            workload.generate_segment(params.measure_ops) for workload in workloads
        ]
        sim.load_segment(measure_traces)
        sim.run(max_cycles=cell.max_cycles)
        delta_cycles = sim.engine.cycle - cycles_before
        counters_after = sim.stats.counters

        def delta(name: str) -> int:
            return counters_after.get(name, 0) - counters_before.get(name, 0)

        measured = params.measure_ops * max(1, cell.threads)
        instructions = delta("retired_instructions")
        nvm_delta = _nvm_writes(counters_after) - _nvm_writes(counters_before)
        per_metric.setdefault("ipc", []).append(
            instructions / delta_cycles if delta_cycles else 0.0
        )
        per_metric.setdefault("nvm_writes_per_op", []).append(nvm_delta / measured)
        per_metric.setdefault("log_writes_per_op", []).append(
            delta("nvm.write.log") / measured
        )
        if cell.scheme.uses_lpq:
            admitted = delta("lpq.admitted")
            if admitted > 0:
                per_metric.setdefault("log_write_drop", []).append(
                    1.0 - delta("nvm.write.log") / admitted
                )
    estimates = {
        name: estimate_metric(name, samples, params.confidence)
        for name, samples in per_metric.items()
        if len(samples) >= 2
    }
    report = SampleReport(
        cell=cell,
        params=params,
        offsets=offsets,
        estimates=estimates,
        detailed_ops=(params.warmup_ops + params.measure_ops) * params.intervals,
    )
    if strict:
        report.check()
    return report
