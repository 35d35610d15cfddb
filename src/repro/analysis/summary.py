"""Whole-evaluation summary: run every experiment and produce one report.

Used by ``python -m repro experiment all`` and handy for regression
checks after model changes — the summary ends with a compact
paper-vs-measured scorecard across all figures and tables.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import experiments
from repro.analysis.figures import run_figures
from repro.analysis.report import format_bars


def run_all(
    threads: int = 4,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Dict[str, "experiments.EvaluationResult"]:
    """Run the whole evaluation; results share the per-process cache."""
    return {
        spec.label: result
        for spec, result in run_figures(threads=threads, scale=scale, seed=seed)
    }


def scorecard(results: Dict[str, "experiments.EvaluationResult"]) -> str:
    """One-line-per-quantity paper-vs-measured scorecard."""
    lines = ["Scorecard (paper vs measured):"]
    for name, result in results.items():
        for quantity, paper_value in result.paper_reference.items():
            measured = result.measured_summary.get(quantity)
            if measured is None:
                continue
            ratio = measured / paper_value if paper_value else float("nan")
            lines.append(
                f"  {name:10s} {quantity:18s} paper {paper_value:7.2f}  "
                f"measured {measured:7.2f}  (x{ratio:4.2f})"
            )
    return "\n".join(lines)


def full_report(
    threads: int = 4,
    scale: Optional[float] = None,
    bars: bool = True,
    seed: Optional[int] = None,
) -> str:
    """Run everything and render the combined report."""
    results = run_all(threads=threads, scale=scale, seed=seed)
    sections = []
    for name, result in results.items():
        sections.append(result.report())
        if bars and result.rows and name == "Figure 6":
            geo = {label: values[-1] for label, values in result.rows.items()}
            sections.append(
                format_bars("Figure 6 geomeans (| marks the PMEM baseline):", geo)
            )
    sections.append(scorecard(results))
    return "\n\n".join(sections)
