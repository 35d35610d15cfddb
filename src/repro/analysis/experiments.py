"""Experiment definitions for every figure and table in the paper's
evaluation (Figures 6-12, Tables 3-4).

Each ``figN_*`` / ``tableN_*`` function enumerates the simulations it
needs as :class:`~repro.parallel.cellspec.CellSpec` cells, hands the
whole batch to a :class:`~repro.parallel.runner.SweepRunner` (process
fan-out + content-addressed result cache; see ``docs/architecture.md``),
and assembles an :class:`EvaluationResult` whose ``report()`` prints the
same rows/series the paper reports, next to the paper's published
values.  The figure catalog (:mod:`repro.analysis.figures`) declares
each function; its published numbers come from
:data:`repro.bench.reference.PAPER_REFERENCE`.

Cells repeated within a process — figures 6, 7 and 8 all use the
fast-NVM evaluation — are simulated once and shared via the runner's
memo, exactly as the old per-module dict cache did; with a cache
attached, unchanged cells survive across processes and invocations too.

Scaling: operation counts are reduced relative to the paper (a Python
cycle-level model is ~10^3x slower than MarssX86); the ``scale`` argument
multiplies both init and measured operations.  Shapes are stable under
scaling because transactions are statistically similar.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_comparison, format_table
from repro.core.schemes import BASELINE, FIGURE_ORDER, Scheme
from repro.parallel.cellspec import CellSpec
from repro.parallel.runner import (
    SweepRunner,
    generate_traces_cached,
    get_default_runner,
)
from repro.sim.config import SystemConfig, dram_config, fast_nvm_config, slow_nvm_config
from repro.sim.simulator import SimResult
from repro.sim.stats import geometric_mean
from repro.workloads import BENCHMARK_ORDER
from repro.isa.trace import OpTrace


@dataclass(frozen=True)
class BenchSpec:
    """Sizing of one benchmark for the evaluation sweeps."""

    name: str
    init_ops: int
    sim_ops: int


#: Default (bench-suite) sizing, per thread, for 4 threads.  With four
#: threads each data point aggregates 120-240 transactions, enough for
#: stable shapes while keeping the full suite's runtime reasonable.
BENCH_SPECS: Dict[str, BenchSpec] = {
    "QE": BenchSpec("QE", init_ops=20000, sim_ops=60),
    "HM": BenchSpec("HM", init_ops=50000, sim_ops=50),
    "SS": BenchSpec("SS", init_ops=16384, sim_ops=50),
    "AT": BenchSpec("AT", init_ops=30000, sim_ops=30),
    "BT": BenchSpec("BT", init_ops=30000, sim_ops=30),
    "RT": BenchSpec("RT", init_ops=30000, sim_ops=30),
}

DEFAULT_THREADS = 4
DEFAULT_SEED = 7


def _env_scale() -> float:
    """Scale factor from the REPRO_BENCH_SCALE environment variable."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def _bench_sizing(name: str, scale: float) -> Tuple[int, int]:
    """(init_ops, sim_ops) for one benchmark at one scale."""
    spec = BENCH_SPECS[name]
    return max(64, int(spec.init_ops * scale)), max(8, int(spec.sim_ops * scale))


def bench_cell(
    name: str,
    scheme: Scheme,
    config: SystemConfig,
    threads: int,
    scale: float,
    seed: int = DEFAULT_SEED,
) -> CellSpec:
    """The sweep cell for one benchmark x scheme x config simulation."""
    init_ops, sim_ops = _bench_sizing(name, scale)
    return CellSpec(
        workload=name,
        scheme=scheme,
        config=config,
        threads=threads,
        seed=seed,
        init_ops=init_ops,
        sim_ops=sim_ops,
    )


def benchmark_traces(
    name: str, threads: int, scale: float, seed: int = DEFAULT_SEED
) -> List[OpTrace]:
    """Per-thread OpTraces for one benchmark (cached per process)."""
    init_ops, sim_ops = _bench_sizing(name, scale)
    return generate_traces_cached(name, threads, seed, init_ops, sim_ops)


def run_cached(
    name: str,
    scheme: Scheme,
    config: SystemConfig,
    threads: int,
    scale: float,
    seed: int = DEFAULT_SEED,
) -> SimResult:
    """Run (or fetch) one benchmark x scheme x config simulation.

    Thin wrapper over the default runner, kept for ad-hoc callers (the
    ablation benches); batch code should enumerate cells and call
    :meth:`~repro.parallel.runner.SweepRunner.run_cells` directly.
    """
    return get_default_runner().run_one(
        bench_cell(name, scheme, config, threads, scale, seed)
    )


@dataclass
class EvaluationResult:
    """A figure/table's measured data plus the paper's reference values.

    Rows may contain ``None`` entries when the backing sweep quarantined
    a cell (see :mod:`repro.parallel.resilience`); ``notes`` carries the
    quarantine summaries and ``report()`` marks the output as partial.
    """

    title: str
    columns: List[str]
    rows: Dict[str, List[Optional[float]]]
    paper_reference: Dict[str, float] = field(default_factory=dict)
    measured_summary: Dict[str, Optional[float]] = field(default_factory=dict)
    value_format: str = "{:.2f}"
    notes: List[str] = field(default_factory=list)

    def report(self) -> str:
        text = format_table(
            self.title, self.columns, self.rows, value_format=self.value_format
        )
        if self.paper_reference:
            text += "\n" + format_comparison(
                "paper vs measured:",
                self.paper_reference,
                self.measured_summary,
                value_format=self.value_format,
            )
        if self.notes:
            text += "\nPARTIAL RESULTS — quarantined cells omitted:\n"
            text += "\n".join(f"  {note}" for note in self.notes) + "\n"
        return text


def _runner_notes(runner: SweepRunner) -> List[str]:
    """Quarantine summaries to surface in a figure/table report."""
    return runner.quarantine_notes()


def _paper(figure: str, order: Optional[Sequence[str]] = None) -> Dict[str, float]:
    """A figure's published numbers, in ``order`` (default: the
    catalog's metric order), for its paper-vs-measured block."""
    # Imported at call time: repro.bench's package init imports the
    # figure catalog, which imports this module.
    from repro.bench.reference import PAPER_REFERENCE

    entries = PAPER_REFERENCE[figure]
    return {metric: entries[metric].value for metric in (order or entries)}


def evaluation_cells(
    config: SystemConfig,
    schemes: Sequence[Scheme] = FIGURE_ORDER,
    benchmarks: Sequence[str] = BENCHMARK_ORDER,
    threads: int = DEFAULT_THREADS,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> Dict[Tuple[str, Scheme], CellSpec]:
    """The (benchmark x scheme) cell matrix one evaluation sweep runs.

    Factored out of :func:`run_evaluation` so tools that need the exact
    cell set without running it (the chaos harness compares a journaled
    CLI run against these cells executed serially) stay in lockstep.
    """
    wanted = list(dict.fromkeys(list(schemes) + [BASELINE]))
    return {
        (name, scheme): bench_cell(name, scheme, config, threads, scale, seed)
        for name in benchmarks
        for scheme in wanted
    }


def run_evaluation(
    config: SystemConfig,
    schemes: Sequence[Scheme] = FIGURE_ORDER,
    benchmarks: Sequence[str] = BENCHMARK_ORDER,
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> Dict[Tuple[str, Scheme], Optional[SimResult]]:
    """Run (benchmark x scheme) sweeps, including the PMEM baseline.

    The whole matrix is enumerated up front and submitted as one batch,
    so a parallel runner fans every cell out at once.  Entries are
    ``None`` only for cells the runner quarantined.
    """
    scale = _env_scale() if scale is None else scale
    runner = get_default_runner() if runner is None else runner
    matrix = evaluation_cells(config, schemes, benchmarks, threads, scale, seed)
    keys = list(matrix)
    return dict(zip(keys, runner.run_cells([matrix[key] for key in keys])))


def _cycles(result: Optional[SimResult]) -> Optional[float]:
    return float(result.cycles) if result is not None else None


def _div(num: Optional[float], den: Optional[float]) -> Optional[float]:
    """None-tolerant ratio: any missing operand poisons the cell."""
    if num is None or den is None:
        return None
    return num / den


def _geomean_or_none(values: Sequence[Optional[float]]) -> Optional[float]:
    """Geomean over the present values; None when nothing survived."""
    present = [value for value in values if value is not None]
    return geometric_mean(present) if present else None


def _speedup_rows(
    results: Dict[Tuple[str, Scheme], Optional[SimResult]],
    schemes: Sequence[Scheme],
    benchmarks: Sequence[str],
) -> Dict[str, List[Optional[float]]]:
    rows: Dict[str, List[Optional[float]]] = {}
    for scheme in schemes:
        values: List[Optional[float]] = [
            _div(
                _cycles(results.get((name, BASELINE))),
                _cycles(results.get((name, scheme))),
            )
            for name in benchmarks
        ]
        values.append(_geomean_or_none(values))
        rows[str(scheme)] = values
    return rows


# ----------------------------------------------------------------------------
# Figure 6: speedup on fast NVMM
# ----------------------------------------------------------------------------

def fig6_speedup_nvm(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 6: speedup over PMEM software logging on fast NVM."""
    config = fast_nvm_config(cores=threads)
    runner = get_default_runner() if runner is None else runner
    results = run_evaluation(
        config, threads=threads, scale=scale, seed=seed, runner=runner
    )
    benchmarks = list(BENCHMARK_ORDER)
    rows = _speedup_rows(results, FIGURE_ORDER, benchmarks)
    measured = {str(s): rows[str(s)][-1] for s in FIGURE_ORDER if str(s) in rows}
    return EvaluationResult(
        title="Figure 6: speedup on NVMM (baseline: PMEM software logging)",
        columns=benchmarks + ["geomean"],
        rows=rows,
        paper_reference=_paper("fig6"),
        measured_summary=measured,
        notes=_runner_notes(runner),
    )


# ----------------------------------------------------------------------------
# Figure 7: front-end stall cycles
# ----------------------------------------------------------------------------

def fig7_frontend_stalls(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 7: front-end stall cycles normalized to PMEM+nolog."""
    config = fast_nvm_config(cores=threads)
    runner = get_default_runner() if runner is None else runner
    schemes = (Scheme.ATOM, Scheme.PROTEUS, Scheme.PMEM_NOLOG)
    results = run_evaluation(
        config, schemes=schemes, threads=threads, scale=scale, seed=seed,
        runner=runner,
    )
    benchmarks = list(BENCHMARK_ORDER)
    rows: Dict[str, List[Optional[float]]] = {}
    for scheme in (Scheme.ATOM, Scheme.PROTEUS):
        values: List[Optional[float]] = []
        for name in benchmarks:
            ideal_result = results.get((name, Scheme.PMEM_NOLOG))
            measured_result = results.get((name, scheme))
            if ideal_result is None or measured_result is None:
                values.append(None)
                continue
            ideal = max(1, ideal_result.frontend_stalls)
            values.append(measured_result.frontend_stalls / ideal)
        values.append(_geomean_or_none(values))
        rows[str(scheme)] = values
    atom_mean = rows[str(Scheme.ATOM)][-1]
    proteus_mean = rows[str(Scheme.PROTEUS)][-1]
    measured = {
        "ATOM / ideal": atom_mean,
        "Proteus / ideal": proteus_mean,
        "ATOM / Proteus": _div(atom_mean, proteus_mean),
    }
    return EvaluationResult(
        title="Figure 7: front-end stall cycles (normalized to PMEM+nolog)",
        columns=benchmarks + ["geomean"],
        rows=rows,
        paper_reference=_paper("fig7"),
        measured_summary=measured,
        notes=_runner_notes(runner),
    )


# ----------------------------------------------------------------------------
# Figure 8: NVMM writes
# ----------------------------------------------------------------------------

def fig8_nvm_writes(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 8: NVMM writes normalized to PMEM+nolog."""
    config = fast_nvm_config(cores=threads)
    runner = get_default_runner() if runner is None else runner
    results = run_evaluation(
        config, threads=threads, scale=scale, seed=seed, runner=runner
    )
    benchmarks = list(BENCHMARK_ORDER)
    rows: Dict[str, List[Optional[float]]] = {}
    for scheme in (Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS_NOLWR, Scheme.PROTEUS):
        values: List[Optional[float]] = []
        for name in benchmarks:
            ideal_result = results.get((name, Scheme.PMEM_NOLOG))
            measured_result = results.get((name, scheme))
            if ideal_result is None or measured_result is None:
                values.append(None)
                continue
            ideal = max(1, ideal_result.nvm_writes)
            values.append(measured_result.nvm_writes / ideal)
        values.append(_geomean_or_none(values))
        rows[str(scheme)] = values
    atom = rows[str(Scheme.ATOM)]
    proteus = [value for value in rows[str(Scheme.PROTEUS)][:-1] if value is not None]
    measured = {
        "ATOM avg": atom[-1],
        "ATOM worst (AT)": atom[benchmarks.index("AT")],
        "Proteus worst": max(proteus) if proteus else None,
    }
    return EvaluationResult(
        title="Figure 8: NVMM writes (normalized to PMEM+nolog)",
        columns=benchmarks + ["geomean"],
        rows=rows,
        paper_reference=_paper("fig8"),
        measured_summary=measured,
        notes=_runner_notes(runner),
    )


# ----------------------------------------------------------------------------
# Figures 9 and 10: slow NVM / DRAM sensitivity
# ----------------------------------------------------------------------------

def _latency_sensitivity(
    config: SystemConfig,
    title: str,
    figure: str,
    threads: int,
    scale: Optional[float],
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    schemes = (Scheme.PMEM_PCOMMIT, Scheme.ATOM, Scheme.PROTEUS, Scheme.PMEM_NOLOG)
    runner = get_default_runner() if runner is None else runner
    results = run_evaluation(
        config, schemes=schemes, threads=threads, scale=scale, seed=seed,
        runner=runner,
    )
    benchmarks = list(BENCHMARK_ORDER)
    rows = _speedup_rows(results, schemes, benchmarks)
    paper = _paper(figure)
    measured = {
        name: rows[name][-1]
        for name in paper
        if name in rows
    }
    return EvaluationResult(
        title=title,
        columns=benchmarks + ["geomean"],
        rows=rows,
        paper_reference=paper,
        measured_summary=measured,
        notes=_runner_notes(runner),
    )


def fig9_slow_nvm(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 9: speedup on slow NVM (300 ns writes)."""
    return _latency_sensitivity(
        slow_nvm_config(cores=threads),
        "Figure 9: speedup on slow NVMM (300 ns writes; baseline PMEM)",
        "fig9",
        threads,
        scale,
        seed=seed,
        runner=runner,
    )


def fig10_dram(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 10: speedup on battery-backed DRAM."""
    return _latency_sensitivity(
        dram_config(cores=threads),
        "Figure 10: speedup on DRAM (baseline PMEM)",
        "fig10",
        threads,
        scale,
        seed=seed,
        runner=runner,
    )


# ----------------------------------------------------------------------------
# Figures 11 and 12: LogQ and LPQ size sweeps
# ----------------------------------------------------------------------------

FIG11_SIZES = (1, 2, 4, 8, 16, 32, 64)
FIG12_SIZES = (8, 16, 32, 64, 128, 256)


def _proteus_size_sweep(
    figure: str,
    title: str,
    row_label: str,
    proteus_knobs: Callable[[int], Dict[str, int]],
    sizes: Sequence[int],
    threads: int,
    scale: Optional[float],
    seed: int,
    runner: Optional[SweepRunner],
) -> EvaluationResult:
    """Proteus speedup over PMEM per benchmark at each queue size.

    ``proteus_knobs(size)`` gives the Proteus configuration of one size,
    whose row is labelled ``<row_label>=<size>``.  The caller fills in
    the figure's ``measured_summary`` from the rows.
    """
    scale = _env_scale() if scale is None else scale
    runner = get_default_runner() if runner is None else runner
    benchmarks = list(BENCHMARK_ORDER)
    base_config = fast_nvm_config(cores=threads)
    keys: List[Tuple[str, Optional[int]]] = [
        (name, None) for name in benchmarks
    ] + [
        (name, size) for size in sizes for name in benchmarks
    ]
    cells = [
        bench_cell(
            name,
            BASELINE if size is None else Scheme.PROTEUS,
            base_config if size is None
            else base_config.with_proteus(**proteus_knobs(size)),
            threads,
            scale,
            seed,
        )
        for name, size in keys
    ]
    results = dict(zip(keys, runner.run_cells(cells)))
    rows: Dict[str, List[Optional[float]]] = {}
    for size in sizes:
        values: List[Optional[float]] = [
            _div(
                _cycles(results.get((name, None))),
                _cycles(results.get((name, size))),
            )
            for name in benchmarks
        ]
        values.append(_geomean_or_none(values))
        rows[f"{row_label}={size}"] = values
    return EvaluationResult(
        title=title,
        columns=benchmarks + ["geomean"],
        rows=rows,
        paper_reference=_paper(figure),
        notes=_runner_notes(runner),
    )


def fig11_logq_sweep(
    sizes: Sequence[int] = FIG11_SIZES,
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 11: Proteus speedup vs LogQ size."""
    result = _proteus_size_sweep(
        "fig11",
        "Figure 11: Proteus speedup vs LogQ size (baseline PMEM)",
        "LogQ",
        lambda size: {"logq_entries": size},
        sizes, threads, scale, seed, runner,
    )
    if 8 in sizes:
        result.measured_summary["LogQ=8 geomean"] = result.rows["LogQ=8"][-1]
    if 64 in sizes:
        result.measured_summary["LogQ=64 geomean"] = result.rows["LogQ=64"][-1]
    return result


def fig12_lpq_sweep(
    sizes: Sequence[int] = FIG12_SIZES,
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Figure 12: Proteus speedup vs LPQ size (LogQ fixed at 16)."""
    result = _proteus_size_sweep(
        "fig12",
        "Figure 12: Proteus speedup vs LPQ size (LogQ=16; baseline PMEM)",
        "LPQ",
        lambda size: {"lpq_entries": size, "logq_entries": 16},
        sizes, threads, scale, seed, runner,
    )
    if sizes:
        result.measured_summary["large-LPQ plateau"] = (
            result.rows[f"LPQ={max(sizes)}"][-1]
        )
    return result


# ----------------------------------------------------------------------------
# Table 3: large transactions (linked-list microbenchmark)
# ----------------------------------------------------------------------------

TABLE3_SIZES = (1024, 2048, 4096, 8192)


def table3_large_transactions(
    sizes: Sequence[int] = TABLE3_SIZES,
    threads: int = 1,
    scale: Optional[float] = None,
    nodes: int = 16,
    transactions: int = 4,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Table 3: Proteus vs ideal on variable-size large transactions."""
    scale = _env_scale() if scale is None else scale
    runner = get_default_runner() if runner is None else runner
    transactions = max(2, int(transactions * scale))
    config = fast_nvm_config(cores=threads)

    def cell(elements: int, scheme: Scheme, cfg: SystemConfig) -> CellSpec:
        return CellSpec(
            workload="LL",
            scheme=scheme,
            config=cfg,
            threads=threads,
            seed=seed,
            init_ops=nodes,
            sim_ops=transactions,
            workload_kwargs=(("elements_per_node", elements),),
        )

    # A second Proteus configuration whose LPQ covers the whole
    # transaction footprint (one 32 B-grain entry per block).  Our
    # single-channel substrate saturates on spilled log writes at
    # these sizes, which the paper's testbed evidently did not; this
    # row shows the paper's near-ideal result is recovered once the
    # spill pressure is removed (see EXPERIMENTS.md).
    variants = [
        ("baseline", BASELINE, lambda elements: config),
        ("Proteus", Scheme.PROTEUS, lambda elements: config),
        (
            "Proteus (LPQ=tx)",
            Scheme.PROTEUS,
            lambda elements: config.with_proteus(
                lpq_entries=max(256, elements // 2)
            ),
        ),
        ("PMEM+nolog(ideal)", Scheme.PMEM_NOLOG, lambda elements: config),
    ]
    keys = [
        (label, elements)
        for elements in sizes
        for label, _, _ in variants
    ]
    cells = [
        cell(elements, scheme, cfg_for(elements))
        for elements in sizes
        for _, scheme, cfg_for in variants
    ]
    results = dict(zip(keys, runner.run_cells(cells)))
    rows: Dict[str, List[Optional[float]]] = {
        label: [
            _div(
                _cycles(results.get(("baseline", elements))),
                _cycles(results.get((label, elements))),
            )
            for elements in sizes
        ]
        for label, _, _ in variants
        if label != "baseline"
    }
    measured = {}
    if 1024 in sizes:
        idx = list(sizes).index(1024)
        measured["Proteus@1024"] = rows["Proteus (LPQ=tx)"][idx]
        measured["ideal@1024"] = rows["PMEM+nolog(ideal)"][idx]
    if 8192 in sizes:
        idx = list(sizes).index(8192)
        measured["Proteus@8192"] = rows["Proteus (LPQ=tx)"][idx]
        measured["ideal@8192"] = rows["PMEM+nolog(ideal)"][idx]
    return EvaluationResult(
        title="Table 3: speedups for large transactions (baseline PMEM)",
        columns=[str(size) for size in sizes],
        rows=rows,
        paper_reference=_paper("table3"),
        measured_summary=measured,
        notes=_runner_notes(runner),
    )


# ----------------------------------------------------------------------------
# Table 4: LLT miss rate
# ----------------------------------------------------------------------------

#: Table 4's columns in the paper's order; the catalog lists the same
#: metrics in the figures' benchmark order.
TABLE4_COLUMNS = ("AT", "BT", "HM", "RT", "SS", "QE")


def table4_llt_miss_rate(
    threads: int = DEFAULT_THREADS,
    scale: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> EvaluationResult:
    """Table 4: LLT miss rate (%) per benchmark under Proteus."""
    scale = _env_scale() if scale is None else scale
    runner = get_default_runner() if runner is None else runner
    config = fast_nvm_config(cores=threads)
    benchmarks = list(TABLE4_COLUMNS)
    cells = [
        bench_cell(name, Scheme.PROTEUS, config, threads, scale, seed)
        for name in benchmarks
    ]
    results = runner.run_cells(cells)
    values: List[Optional[float]] = [
        100.0 * result.stats.llt_miss_rate() if result is not None else None
        for result in results
    ]
    rows: Dict[str, List[Optional[float]]] = {"miss rate %": values}
    measured = dict(zip(benchmarks, values))
    return EvaluationResult(
        title="Table 4: LLT miss rate (%) with a 64-entry LLT",
        columns=benchmarks,
        rows=rows,
        paper_reference=_paper("table4", TABLE4_COLUMNS),
        measured_summary=measured,
        value_format="{:.1f}",
        notes=_runner_notes(runner),
    )
