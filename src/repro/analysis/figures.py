"""The figure catalog: one entry per paper figure/table.

One :class:`FigureSpec` per paper figure/table (Figures 6-12, Tables
3-4) is the only place the figure is declared.  The entry names the
experiment driver that regenerates it (its ``figN_*``/``tableN_*``
function in :mod:`repro.analysis.experiments`), whether a run's thread
count is passed to it, the sweep it shares with earlier figures, and how
it is displayed.  Its metric names and published numbers live in
:data:`repro.bench.reference.PAPER_REFERENCE` under the same name.

``repro experiment`` and ``benchmarks/emit_bench.py`` run figures
through :func:`run_figures`; the dashboard (:mod:`repro.bench.dashboard`)
and the regression gate (:mod:`repro.bench.gate`) iterate
:data:`REGISTRY`.  A figure absent here is invisible to all of them.

Over the benchmark trajectory the catalog emits two versioned artifacts
per figure, from the summary metrics ``emit_bench.py`` records in
``BENCH_results.json``:

* a **Vega-Lite v5 spec** (``<name>.vl.json``) showing the latest
  reproduced value next to the paper's published number, series
  side-by-side per metric, with the registry/schema versions stamped
  into ``usermeta`` so downstream tooling can detect drift;
* a **CSV** (``<name>.csv``) of the same rows plus the reference
  tolerance, gate level, and paper-source provenance for each metric.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.experiments import (
    DEFAULT_THREADS,
    EvaluationResult,
    fig6_speedup_nvm,
    fig7_frontend_stalls,
    fig8_nvm_writes,
    fig9_slow_nvm,
    fig10_dram,
    fig11_logq_sweep,
    fig12_lpq_sweep,
    table3_large_transactions,
    table4_llt_miss_rate,
)

#: Bump when the emitted spec/CSV shape changes meaning.
REGISTRY_VERSION = 1

VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Series colors: the reproduction is the subject (accent blue), the
#: paper's published number is context (muted gray).
SERIES_COLORS = {"repro": "#2a78d6", "paper": "#898781"}


@dataclass(frozen=True)
class FigureSpec:
    """Catalog entry for one paper figure/table."""

    name: str
    #: The experiment driver that regenerates the figure.
    driver: Callable[..., EvaluationResult]
    title: str
    #: ``"bar"`` (chart-shaped figures) or ``"table"`` (paper tables).
    kind: str
    #: What the metric values measure (axis title).
    unit: str
    #: Which paper figure the series reproduce.
    paper_source: str
    #: Whether a run's thread count is passed to the driver.  Table 3's
    #: is not: it sweeps transaction sizes on one thread.
    threaded: bool = True
    #: The sweep this figure shares with earlier catalog figures.  In one
    #: process the runner memo serves a later figure's cells from the
    #: first one's, so ``emit_bench.py`` records the later ones
    #: ``derived`` from it.
    sweep: Optional[str] = None

    @property
    def label(self) -> str:
        """Report label: ``"Figure 6"`` for ``fig6``, ``"Table 3"`` for
        ``table3``."""
        if self.name.startswith("table"):
            return "Table " + self.name[len("table"):]
        return "Figure " + self.name[len("fig"):]

    @property
    def metrics(self) -> Tuple[str, ...]:
        """Summary metric names, in display order."""
        # Imported at call time: repro.bench's package init pulls in the
        # gate and dashboard, which import this module.
        from repro.bench.reference import PAPER_REFERENCE

        return tuple(PAPER_REFERENCE[self.name])

    def run(
        self,
        threads: int = DEFAULT_THREADS,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> EvaluationResult:
        """Regenerate the figure; ``None`` keeps the driver's default."""
        kwargs: Dict[str, Any] = {}
        if self.threaded:
            kwargs["threads"] = threads
        if scale is not None:
            kwargs["scale"] = scale
        if seed is not None:
            kwargs["seed"] = seed
        return self.driver(**kwargs)


#: Registry order follows the paper's evaluation sections.
REGISTRY: Dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="fig6",
            driver=fig6_speedup_nvm,
            title="Speedup on NVMM (baseline: PMEM software logging)",
            kind="bar",
            unit="geomean speedup over PMEM",
            paper_source="Fig. 6 (§6)",
            sweep="fast-nvm-eval",
        ),
        FigureSpec(
            name="fig7",
            driver=fig7_frontend_stalls,
            title="Front-end stall cycles (normalized to PMEM+nolog)",
            kind="bar",
            unit="geomean normalized stall cycles",
            paper_source="Fig. 7 (§6)",
            sweep="fast-nvm-eval",
        ),
        FigureSpec(
            name="fig8",
            driver=fig8_nvm_writes,
            title="NVMM writes (normalized to PMEM+nolog)",
            kind="bar",
            unit="normalized NVMM writes",
            paper_source="Fig. 8 (§6)",
            sweep="fast-nvm-eval",
        ),
        FigureSpec(
            name="fig9",
            driver=fig9_slow_nvm,
            title="Speedup on slow NVMM (300 ns writes)",
            kind="bar",
            unit="geomean speedup over PMEM",
            paper_source="Fig. 9 (§7.1)",
        ),
        FigureSpec(
            name="fig10",
            driver=fig10_dram,
            title="Speedup on DRAM",
            kind="bar",
            unit="geomean speedup over PMEM",
            paper_source="Fig. 10 (§7.2)",
        ),
        FigureSpec(
            name="fig11",
            driver=fig11_logq_sweep,
            title="Proteus speedup vs LogQ size",
            kind="bar",
            unit="geomean speedup over PMEM",
            paper_source="Fig. 11 (§7.3)",
        ),
        FigureSpec(
            name="fig12",
            driver=fig12_lpq_sweep,
            title="Proteus speedup vs LPQ size (LogQ=16)",
            kind="bar",
            unit="geomean speedup over PMEM",
            paper_source="Fig. 12 (§7.3)",
        ),
        FigureSpec(
            name="table3",
            driver=table3_large_transactions,
            title="Speedups for large transactions",
            kind="table",
            unit="speedup over PMEM",
            paper_source="Table 3 (§7.3)",
            threaded=False,
        ),
        FigureSpec(
            name="table4",
            driver=table4_llt_miss_rate,
            title="LLT miss rate with a 64-entry LLT",
            kind="table",
            unit="miss rate (%)",
            paper_source="Table 4 (§7.3)",
            sweep="fast-nvm-eval",
        ),
    )
}


def run_figures(
    names: Optional[Sequence[str]] = None,
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Iterator[Tuple[FigureSpec, EvaluationResult]]:
    """Regenerate the catalog's figures in order (only ``names``, if
    given), yielding each one's result as soon as it is done."""
    for spec in REGISTRY.values():
        if names and spec.name not in names:
            continue
        yield spec, spec.run(threads, scale, seed)


def latest_figure_records(
    doc: Dict[str, Any]
) -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """Latest record per figure across all runs: name -> (run label, record).

    Runs append in order, and a run may regenerate only a subset of
    figures (``emit_bench.py --figures``), so "the current state" is
    the per-figure latest record, each attributed to the run that
    produced it.
    """
    latest: Dict[str, Tuple[str, Dict[str, Any]]] = {}
    for run in doc.get("runs", []):
        for record in run.get("figures", []):
            latest[record["figure"]] = (run["label"], record)
    return latest


def comparison_rows(
    spec: FigureSpec, doc: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Repro-vs-paper rows for one figure, from the latest record."""
    # Imported at call time: repro.bench's package init pulls in the
    # gate and dashboard, which import this module.
    from repro.bench.reference import reference_for

    rows: List[Dict[str, Any]] = []
    latest = latest_figure_records(doc).get(spec.name)
    measured: Dict[str, Any] = latest[1].get("metrics", {}) if latest else {}
    run_label = latest[0] if latest else None
    for metric in spec.metrics:
        reference = reference_for(spec.name, metric)
        value = measured.get(metric)
        if value is not None:
            rows.append(
                {
                    "figure": spec.name,
                    "metric": metric,
                    "series": "repro",
                    "value": value,
                    "run": run_label,
                }
            )
        if reference is not None:
            rows.append(
                {
                    "figure": spec.name,
                    "metric": metric,
                    "series": "paper",
                    "value": reference.value,
                    "run": None,
                }
            )
    return rows


def trajectory_rows(
    spec: FigureSpec, doc: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-run metric values for one figure, across the whole trajectory."""
    rows: List[Dict[str, Any]] = []
    for index, run in enumerate(doc.get("runs", [])):
        for record in run.get("figures", []):
            if record["figure"] != spec.name:
                continue
            for metric in spec.metrics:
                value = record.get("metrics", {}).get(metric)
                if value is None:
                    continue
                rows.append(
                    {
                        "figure": spec.name,
                        "metric": metric,
                        "run": run["label"],
                        "run_index": index,
                        "value": value,
                    }
                )
    return rows


def walltime_rows(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-run wall times: one row per non-derived figure plus totals.

    Figures marked ``derived`` rode along on another figure's sweep —
    their recorded wall time is not a measurement of their own cost, so
    they are excluded rather than plotted as impossible zeros.
    """
    rows: List[Dict[str, Any]] = []
    for index, run in enumerate(doc.get("runs", [])):
        for record in run.get("figures", []):
            if record.get("derived"):
                continue
            rows.append(
                {
                    "run": run["label"],
                    "run_index": index,
                    "figure": record["figure"],
                    "wall_time_s": record.get("wall_time_s", 0.0),
                }
            )
        rows.append(
            {
                "run": run["label"],
                "run_index": index,
                "figure": "total",
                "wall_time_s": run.get("total_wall_time_s", 0.0),
            }
        )
    return rows


def vega_lite_spec(spec: FigureSpec, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Versioned Vega-Lite v5 spec: repro vs paper, side by side."""
    results_version = doc.get("schema_version")
    return {
        "$schema": VEGA_LITE_SCHEMA,
        "title": {
            "text": f"{spec.name}: {spec.title}",
            "subtitle": f"reproduction vs {spec.paper_source}",
        },
        "usermeta": {
            "registry_version": REGISTRY_VERSION,
            "results_schema_version": results_version,
            "figure": spec.name,
            "paper_source": spec.paper_source,
        },
        "data": {"values": comparison_rows(spec, doc)},
        "mark": {"type": "bar", "cornerRadiusEnd": 4},
        "encoding": {
            "x": {
                "field": "metric",
                "type": "nominal",
                "sort": list(spec.metrics),
                "title": None,
            },
            "xOffset": {"field": "series"},
            "y": {
                "field": "value",
                "type": "quantitative",
                "title": spec.unit,
            },
            "color": {
                "field": "series",
                "type": "nominal",
                "scale": {
                    "domain": ["repro", "paper"],
                    "range": [SERIES_COLORS["repro"], SERIES_COLORS["paper"]],
                },
            },
            "tooltip": [
                {"field": "metric"},
                {"field": "series"},
                {"field": "value", "format": ".4f"},
                {"field": "run"},
            ],
        },
    }


def figure_csv(spec: FigureSpec, doc: Dict[str, Any]) -> str:
    """CSV of the comparison rows, annotated with reference provenance."""
    from repro.bench.reference import reference_for

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "figure", "metric", "series", "value", "run",
            "tolerance", "level", "source",
        ]
    )
    for row in comparison_rows(spec, doc):
        reference = reference_for(spec.name, str(row["metric"]))
        writer.writerow(
            [
                row["figure"],
                row["metric"],
                row["series"],
                row["value"],
                row["run"] if row["run"] is not None else "",
                reference.tolerance if reference is not None else "",
                reference.level if reference is not None else "",
                reference.source if reference is not None else "",
            ]
        )
    return buffer.getvalue()


def emit_figures(
    doc: Dict[str, Any],
    out_dir: Union[str, Path],
    names: Optional[List[str]] = None,
) -> List[Path]:
    """Write ``<name>.vl.json`` + ``<name>.csv`` per registry figure."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, spec in REGISTRY.items():
        if names and name not in names:
            continue
        vl_path = out / f"{name}.vl.json"
        vl_path.write_text(
            json.dumps(vega_lite_spec(spec, doc), indent=2, sort_keys=True)
            + "\n"
        )
        csv_path = out / f"{name}.csv"
        csv_path.write_text(figure_csv(spec, doc))
        written.extend([vl_path, csv_path])
    return written
