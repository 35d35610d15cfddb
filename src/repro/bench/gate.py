"""The CI regression gate over the benchmark trajectory.

Two independent checks, one delta report:

* **Paper fidelity** — the latest value of every registry metric is
  compared against the paper's published number within the per-metric
  tolerance of :data:`repro.bench.reference.PAPER_REFERENCE`.
  ``gate``-level metrics fail the gate outside tolerance;
  ``track``-level metrics are reported with their deviation but never
  fail (their divergence is a documented artifact of the scaled
  configuration).
* **Baseline drift** — the same metrics are diffed against the last
  *accepted* baseline (``benchmarks/BASELINE.json``, written by
  ``python -m repro bench accept``).  Any relative drift beyond the
  drift tolerance fails: metrics are deterministic for a fixed
  (scale, threads, seed), so unexplained movement is a model change
  that must be re-accepted deliberately.  Comparisons against a
  baseline recorded under a different (scale, threads, seed) context
  are skipped with a note instead of producing false drift.

Wall times are machine-dependent: large swings surface as warnings,
never failures, and figures marked ``derived`` (their cells were served
from another figure's sweep) are excluded from wall-time comparison
entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.figures import REGISTRY, latest_figure_records
from repro.bench.reference import REFERENCE_VERSION, reference_for
from repro.bench.schema import BenchResultsError

#: Baseline file schema (bump on breaking change).
BASELINE_SCHEMA_VERSION = 1

#: Default relative drift tolerance against the accepted baseline.
DEFAULT_DRIFT_TOLERANCE = 0.05

#: Wall-time ratio beyond which a warning (never a failure) is raised.
WALLTIME_WARN_RATIO = 2.0

#: Run-context keys that must match for drift comparison to be meaningful.
CONTEXT_KEYS = ("threads", "scale", "seed")


def _normalize_context(context: Dict[str, Any]) -> Dict[str, Any]:
    """Project a context onto :data:`CONTEXT_KEYS`.

    Older trajectory records and baselines carry extra keys (such as
    ``engine``); only the keys listed here decide comparability.
    """
    return {key: context.get(key) for key in CONTEXT_KEYS}


@dataclass(frozen=True)
class GateFinding:
    """One comparison: a metric against the paper or the baseline."""

    figure: str
    metric: str
    check: str  # "fidelity" | "drift" | "walltime" | "coverage"
    status: str  # "PASS" | "FAIL" | "WARN" | "TRACK" | "SKIP"
    measured: Optional[float] = None
    reference: Optional[float] = None
    rel_delta: Optional[float] = None
    tolerance: Optional[float] = None
    note: str = ""

    def render(self) -> str:
        parts = [f"[{self.status:5s}] {self.check:8s} {self.figure:7s}"]
        parts.append(f"{self.metric:20s}")
        if self.measured is not None and self.reference is not None:
            parts.append(
                f"{self.measured:9.4f} vs {self.reference:9.4f}"
            )
            if self.rel_delta is not None:
                parts.append(f"Δ {self.rel_delta:+7.1%}")
            if self.tolerance is not None:
                parts.append(f"(tol ±{self.tolerance:.0%})")
        if self.note:
            parts.append(f"— {self.note}")
        return "  ".join(parts)


@dataclass
class GateReport:
    """All findings of one gate run plus the rendered delta report."""

    findings: List[GateFinding] = field(default_factory=list)
    fidelity_only: bool = False

    @property
    def failures(self) -> List[GateFinding]:
        return [f for f in self.findings if f.status == "FAIL"]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for finding in self.findings:
            tally[finding.status] = tally.get(finding.status, 0) + 1
        return tally

    def render(self) -> str:
        lines: List[str] = []
        mode = "fidelity only" if self.fidelity_only else "fidelity + drift"
        lines.append(f"bench gate ({mode}): "
                     f"{'PASS' if self.passed else 'FAIL'}")
        tally = self.counts()
        lines.append(
            "  " + "  ".join(
                f"{status}={tally[status]}"
                for status in ("PASS", "TRACK", "WARN", "SKIP", "FAIL")
                if status in tally
            )
        )
        interesting = [f for f in self.findings if f.status != "PASS"]
        if interesting:
            lines.append("deltas needing attention:")
            for finding in interesting:
                lines.append("  " + finding.render())
        passing = [f for f in self.findings if f.status == "PASS"]
        if passing:
            lines.append("within tolerance:")
            for finding in passing:
                lines.append("  " + finding.render())
        return "\n".join(lines) + "\n"


def _run_context(run: Dict[str, Any]) -> Dict[str, Any]:
    return _normalize_context(run)


def _contexts_by_label(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {run["label"]: _run_context(run) for run in doc.get("runs", [])}


def build_baseline(doc: Dict[str, Any]) -> Dict[str, Any]:
    """An accepted-baseline snapshot of the per-figure latest records."""
    contexts = _contexts_by_label(doc)
    figures: Dict[str, Any] = {}
    for name, (label, record) in sorted(latest_figure_records(doc).items()):
        figures[name] = {
            "run": label,
            "context": contexts.get(label, {}),
            "metrics": dict(record.get("metrics", {})),
            "wall_time_s": record.get("wall_time_s", 0.0),
            "derived": bool(record.get("derived", False)),
        }
    return {
        "baseline_schema_version": BASELINE_SCHEMA_VERSION,
        "reference_version": REFERENCE_VERSION,
        "figures": figures,
    }


def validate_baseline(doc: Any) -> List[str]:
    """Check a baseline document; returns problems (empty = valid)."""
    if not isinstance(doc, dict):
        return [f"baseline must be a JSON object, got {type(doc).__name__}"]
    problems: List[str] = []
    version = doc.get("baseline_schema_version")
    if version != BASELINE_SCHEMA_VERSION:
        problems.append(
            f"baseline_schema_version: expected {BASELINE_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
        return problems
    figures = doc.get("figures")
    if not isinstance(figures, dict):
        return problems + ["baseline must contain a 'figures' object"]
    for name, entry in figures.items():
        where = f"figures[{name!r}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        if not isinstance(entry.get("metrics"), dict):
            problems.append(f"{where}: metrics must be an object")
        if not isinstance(entry.get("run"), str):
            problems.append(f"{where}: run must be a string")
    return problems


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load + validate an accepted baseline file."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as err:
        raise BenchResultsError(f"cannot read baseline {path}: {err}") from err
    try:
        doc = json.loads(raw)
    except ValueError as err:
        raise BenchResultsError(
            f"baseline {path} is not valid JSON: {err}"
        ) from err
    problems = validate_baseline(doc)
    if problems:
        detail = "\n".join(f"  - {problem}" for problem in problems)
        raise BenchResultsError(
            f"baseline {path} failed validation:\n{detail}"
        )
    return doc


def _fidelity_findings(
    latest: Dict[str, Tuple[str, Dict[str, Any]]]
) -> List[GateFinding]:
    findings: List[GateFinding] = []
    for name, spec in REGISTRY.items():
        entry = latest.get(name)
        if entry is None:
            findings.append(
                GateFinding(
                    figure=name, metric="*", check="coverage", status="FAIL",
                    note="figure has no record in the trajectory",
                )
            )
            continue
        label, record = entry
        metrics = record.get("metrics", {})
        for metric in spec.metrics:
            reference = reference_for(name, metric)
            measured = metrics.get(metric)
            if reference is None:
                continue  # completeness asserted by tests, not the gate
            if measured is None:
                status = "FAIL" if reference.level == "gate" else "WARN"
                findings.append(
                    GateFinding(
                        figure=name, metric=metric, check="fidelity",
                        status=status, reference=reference.value,
                        note=f"no measured value in run '{label}'",
                    )
                )
                continue
            deviation = reference.deviation(float(measured))
            rel_delta = (float(measured) - reference.value) / abs(
                reference.value
            )
            within = deviation <= reference.tolerance
            if reference.level == "track":
                status = "TRACK"
                note = reference.source + (
                    "" if within else " (outside tracked band)"
                )
            else:
                status = "PASS" if within else "FAIL"
                note = reference.source
            findings.append(
                GateFinding(
                    figure=name, metric=metric, check="fidelity",
                    status=status, measured=float(measured),
                    reference=reference.value, rel_delta=rel_delta,
                    tolerance=reference.tolerance, note=note,
                )
            )
    return findings


def _drift_findings(
    latest: Dict[str, Tuple[str, Dict[str, Any]]],
    contexts: Dict[str, Dict[str, Any]],
    baseline: Dict[str, Any],
    drift_tolerance: float,
) -> List[GateFinding]:
    findings: List[GateFinding] = []
    base_figures: Dict[str, Any] = baseline.get("figures", {})
    for name, base_entry in sorted(base_figures.items()):
        entry = latest.get(name)
        if entry is None:
            findings.append(
                GateFinding(
                    figure=name, metric="*", check="drift", status="FAIL",
                    note="figure in baseline but absent from trajectory",
                )
            )
            continue
        label, record = entry
        context = contexts.get(label, {})
        base_context = base_entry.get("context", {})
        if (
            base_context
            and context
            and _normalize_context(base_context) != context
        ):
            findings.append(
                GateFinding(
                    figure=name, metric="*", check="drift", status="SKIP",
                    note=(
                        f"run context {context} differs from baseline "
                        f"{base_context}; not comparable"
                    ),
                )
            )
            continue
        metrics = record.get("metrics", {})
        base_metrics: Dict[str, Any] = base_entry.get("metrics", {})
        for metric, base_value in sorted(base_metrics.items()):
            measured = metrics.get(metric)
            if base_value is None or measured is None:
                findings.append(
                    GateFinding(
                        figure=name, metric=metric, check="drift",
                        status="WARN",
                        note="value missing on one side; cannot compare",
                    )
                )
                continue
            base_float = float(base_value)
            rel_delta = (
                (float(measured) - base_float) / abs(base_float)
                if base_float else 0.0
            )
            status = "PASS" if abs(rel_delta) <= drift_tolerance else "FAIL"
            findings.append(
                GateFinding(
                    figure=name, metric=metric, check="drift", status=status,
                    measured=float(measured), reference=base_float,
                    rel_delta=rel_delta, tolerance=drift_tolerance,
                    note=f"vs baseline run '{base_entry.get('run')}'",
                )
            )
        for metric in sorted(set(metrics) - set(base_metrics)):
            findings.append(
                GateFinding(
                    figure=name, metric=metric, check="drift", status="WARN",
                    note="new metric not in baseline; accept a new baseline",
                )
            )
        # Wall time: informational only — machine-dependent.
        base_wall = base_entry.get("wall_time_s", 0.0)
        wall = record.get("wall_time_s", 0.0)
        derived = bool(record.get("derived", False)) or bool(
            base_entry.get("derived", False)
        )
        if not derived and base_wall and base_wall >= 1.0 and wall:
            ratio = float(wall) / float(base_wall)
            if ratio >= WALLTIME_WARN_RATIO or ratio <= 1 / WALLTIME_WARN_RATIO:
                findings.append(
                    GateFinding(
                        figure=name, metric="wall_time_s", check="walltime",
                        status="WARN", measured=float(wall),
                        reference=float(base_wall), rel_delta=ratio - 1.0,
                        note="wall-time swing (informational; "
                             "machine-dependent)",
                    )
                )
    for name in sorted(set(latest) - set(base_figures)):
        if name in REGISTRY:
            findings.append(
                GateFinding(
                    figure=name, metric="*", check="drift", status="WARN",
                    note="figure not in baseline; run 'repro bench accept'",
                )
            )
    return findings


def run_gate(
    doc: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None,
    fidelity_only: bool = False,
    drift_tolerance: float = DEFAULT_DRIFT_TOLERANCE,
) -> GateReport:
    """Run the fidelity (and, unless disabled, drift) checks."""
    latest = latest_figure_records(doc)
    findings = _fidelity_findings(latest)
    if not fidelity_only:
        if baseline is None:
            findings.append(
                GateFinding(
                    figure="*", metric="*", check="drift", status="FAIL",
                    note=(
                        "no accepted baseline; run 'repro bench accept' or "
                        "pass --fidelity-only"
                    ),
                )
            )
        else:
            findings.extend(
                _drift_findings(
                    latest, _contexts_by_label(doc), baseline,
                    drift_tolerance,
                )
            )
    return GateReport(findings=findings, fidelity_only=fidelity_only)
