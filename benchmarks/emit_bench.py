"""Emit a machine-readable benchmark trajectory.

Runs the tier-1 figure/table benchmarks (the same experiment functions
``pytest benchmarks/`` regenerates) and appends one run record to
``BENCH_results.json`` at the repo root: per-figure wall time plus the
figure's key measured metrics (the ``measured_summary`` each
:class:`~repro.analysis.experiments.EvaluationResult` carries — geomean
speedups, stall ratios, write amplification, LLT miss rates).

Future PRs compare their run against the recorded trajectory to catch
perf regressions in the simulator itself (wall time) and model drift
(metrics).  Usage::

    python benchmarks/emit_bench.py                  # full scale, 4 threads
    python benchmarks/emit_bench.py --scale 0.25     # quick pass
    python benchmarks/emit_bench.py --label pr-12 --fresh

Wall times are machine-dependent; metrics are deterministic for a given
(scale, threads, seed).  The record stores all three knobs so trajectory
points are comparable.

Sweeps run through the parallel sweep runner (``repro.parallel``):
``--jobs N`` fans cells out over worker processes, ``--cache-dir`` /
``--no-cache`` control the on-disk result cache, and
``--compare-runner`` additionally times one evaluation sweep three ways
— serial cold, parallel cold, warm cache — verifying the three produce
byte-identical results and recording the wall times in the run record.

Checkpointing comparison (``repro.snapshot``): ``--compare-faults``
times one crash campaign cold (every case simulates from reset) vs
launched from a warm checkpoint, verifying both pass.

Crash-safety comparison (``repro.parallel.resilience``):
``--compare-resilience`` times one evaluation sweep three ways —
undisturbed serial, a journaled run interrupted halfway, and the resume
that finishes it — verifying the resume executes only the leftover
cells and the recovered results are byte-identical to the serial pass.

Model-checker cost (``repro.verify``): ``--compare-verify`` runs the
crash-state checker over one workload per failure-safe scheme and
records crash-point/frontier counts, coverage, and wall time per
scheme, so checker state-space growth shows up in the trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.figures import (  # noqa: E402  (needs the path insert)
    REGISTRY,
    run_figures,
)
from repro.bench.schema import (  # noqa: E402
    RESULTS_SCHEMA_VERSION as TRAJECTORY_SCHEMA_VERSION,
)


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_figures(threads: int, scale: float, seed: int, names=None) -> list:
    """Run each catalog figure once; return per-figure timing + metric
    records.

    The first figure run of each shared sweep (``FigureSpec.sweep``)
    pays the sweep; the rest reuse its cells through the runner memo and
    are marked ``derived`` with a pointer at the producing figure, so
    wall-time consumers know their near-zero timing is shared
    attribution rather than a measurement (the gate and dashboard must
    not read it as a perf win).
    """
    records = []
    group_producer = {}
    start = time.perf_counter()
    for spec, result in run_figures(names, threads, scale, seed):
        elapsed = time.perf_counter() - start
        name = spec.name
        record = {
            "figure": name,
            "title": result.title,
            "wall_time_s": round(elapsed, 3),
            "metrics": {
                key: round(value, 4)
                for key, value in result.measured_summary.items()
            },
        }
        producer = group_producer.get(spec.sweep)
        if spec.sweep is not None and producer is None:
            group_producer[spec.sweep] = name
        elif producer is not None:
            record["derived"] = True
            record["derived_from"] = producer
        tag = f"(from {producer})" if record.get("derived") else ""
        print(f"  {name:<8} {elapsed:8.2f}s  {result.title} {tag}".rstrip())
        records.append(record)
        start = time.perf_counter()
    return records


def compare_runner(
    threads: int, scale: float, seed: int, jobs: int, cache_dir=None
) -> dict:
    """Time one evaluation sweep serial / parallel / warm-cache.

    All three passes must produce byte-identical results; the record
    carries the three wall times plus the warm pass's cache-hit count.
    """
    from repro.analysis.experiments import bench_cell
    from repro.core.schemes import BASELINE, FIGURE_ORDER
    from repro.parallel import ResultCache, SweepRunner, result_bytes
    from repro.sim.config import fast_nvm_config
    from repro.workloads import BENCHMARK_ORDER

    config = fast_nvm_config(cores=threads)
    schemes = list(dict.fromkeys(list(FIGURE_ORDER) + [BASELINE]))
    cells = [
        bench_cell(name, scheme, config, threads, scale, seed)
        for name in BENCHMARK_ORDER
        for scheme in schemes
    ]

    def timed(runner, label):
        start = time.perf_counter()
        results = runner.run_cells(cells)
        elapsed = time.perf_counter() - start
        print(f"  runner[{label:<13}] {elapsed:8.2f}s  {runner.describe()}")
        return elapsed, [result_bytes(r) for r in results]

    serial_s, serial_bytes = timed(SweepRunner(jobs=1), "serial")
    parallel_s, parallel_bytes = timed(SweepRunner(jobs=jobs), f"jobs={jobs}")

    cleanup = None
    if cache_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = cleanup.name
    try:
        cold = SweepRunner(jobs=1, cache=ResultCache(cache_dir))
        cold.run_cells(cells)
        warm_cache = ResultCache(cache_dir)
        warm_s, warm_bytes = timed(
            SweepRunner(jobs=1, cache=warm_cache), "warm-cache"
        )
        warm_hits = warm_cache.hits
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    identical = serial_bytes == parallel_bytes == warm_bytes
    if not identical:
        print("warning: runner passes NOT byte-identical", file=sys.stderr)
    return {
        "cells": len(cells),
        "jobs": jobs,
        "serial_wall_time_s": round(serial_s, 3),
        "parallel_wall_time_s": round(parallel_s, 3),
        "warm_cache_wall_time_s": round(warm_s, 3),
        "warm_cache_hits": warm_hits,
        "byte_identical": identical,
    }


def compare_resilience(
    threads: int, scale: float, seed: int, jobs: int
) -> dict:
    """Time an undisturbed sweep vs an interrupted-then-resumed one.

    The "interruption" journals the first half of the cells and stops —
    exactly the journal state a SIGKILL between cells leaves behind.
    The resume must execute only the second half and reproduce the
    undisturbed serial results byte for byte.
    """
    from repro.analysis.experiments import bench_cell
    from repro.core.schemes import FIGURE_ORDER
    from repro.parallel import SweepJournal, SweepRunner, result_bytes
    from repro.sim.config import fast_nvm_config
    from repro.workloads import BENCHMARK_ORDER

    config = fast_nvm_config(cores=threads)
    cells = [
        bench_cell(name, scheme, config, threads, scale, seed)
        for name in BENCHMARK_ORDER
        for scheme in FIGURE_ORDER
    ]

    start = time.perf_counter()
    serial_results = SweepRunner(jobs=1).run_cells(cells)
    serial_s = time.perf_counter() - start
    reference = [result_bytes(result) for result in serial_results]

    cut = max(1, len(cells) // 2)
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journal_path = Path(tmp) / "journal.jsonl"
        start = time.perf_counter()
        with SweepJournal(journal_path, label="bench-resilience") as journal:
            SweepRunner(jobs=jobs, journal=journal).run_cells(cells[:cut])
        interrupted_s = time.perf_counter() - start

        start = time.perf_counter()
        with SweepJournal(journal_path, label="bench-resilience") as journal:
            resumed = SweepRunner(jobs=jobs, journal=journal)
            resumed_results = resumed.run_cells(cells)
        resumed_s = time.perf_counter() - start

    identical = [
        result_bytes(result) for result in resumed_results
    ] == reference
    print(f"  resilience[serial     ] {serial_s:8.2f}s  "
          f"{len(cells)} cells undisturbed")
    print(f"  resilience[interrupted] {interrupted_s:8.2f}s  "
          f"{cut} cells journaled, then killed")
    print(f"  resilience[resumed    ] {resumed_s:8.2f}s  "
          f"{resumed.simulated} simulated, "
          f"{resumed.journal_hits} journal hit(s)")
    if not identical:
        print("warning: resumed sweep NOT byte-identical", file=sys.stderr)
    return {
        "cells": len(cells),
        "interrupted_after": cut,
        "jobs": jobs,
        "serial_wall_time_s": round(serial_s, 3),
        "interrupted_wall_time_s": round(interrupted_s, 3),
        "resumed_wall_time_s": round(resumed_s, 3),
        "resumed_simulated": resumed.simulated,
        "resumed_journal_hits": resumed.journal_hits,
        "byte_identical": identical,
    }


def compare_faults(seed: int) -> dict:
    """Time one crash campaign cold vs warm-checkpointed.

    Both campaigns run the same planned crashes; the warm one simulates
    the prefix once, snapshots the quiesced machine, and restores it for
    every case.  Both must pass.
    """
    from repro.faults import run_campaign

    sizing = dict(
        crashes=60, seed=seed, threads=1, init_ops=200, sim_ops=40,
        mode="none",
    )

    start = time.perf_counter()
    cold = run_campaign("Proteus", "QE", **sizing)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_campaign("Proteus", "QE", warm_start_ops=30, **sizing)
    warm_s = time.perf_counter() - start

    print(f"  faults[cold]  {cold_s:8.2f}s  "
          f"{cold.crashes} cases -> {'PASS' if cold.passed else 'FAIL'}")
    print(f"  faults[warm]  {warm_s:8.2f}s  "
          f"{warm.crashes} cases from {warm.warm_start_ops} warm ops "
          f"@cycle {warm.warm_checkpoint_cycle} "
          f"-> {'PASS' if warm.passed else 'FAIL'}")
    if not (cold.passed and warm.passed):
        print("warning: fault campaign comparison did not pass", file=sys.stderr)
    return {
        "scheme": "Proteus",
        "workload": "QE",
        "mode": sizing["mode"],
        "crashes": sizing["crashes"],
        "sim_ops": sizing["sim_ops"],
        "warm_start_ops": warm.warm_start_ops,
        "warm_checkpoint_cycle": warm.warm_checkpoint_cycle,
        "cold_wall_time_s": round(cold_s, 3),
        "warm_wall_time_s": round(warm_s, 3),
        "cold_passed": cold.passed,
        "warm_passed": warm.passed,
    }


def compare_verify(seed: int, budget=None) -> dict:
    """Model-check one workload per failure-safe scheme; record the
    state-space size (crash points, frontiers) and wall time per scheme
    so checker cost growth is visible in the trajectory."""
    from repro.verify import verify_workload
    from repro.analysis.verifysweep import verifiable_schemes

    records = []
    for scheme in verifiable_schemes():
        start = time.perf_counter()
        report = verify_workload(
            scheme, "QE", threads=1, seed=seed,
            init_ops=12, sim_ops=6, budget=budget,
        )
        elapsed = time.perf_counter() - start
        print(f"  verify[{str(scheme):<14}] {elapsed:8.2f}s  "
              f"{report.positions} crash points, "
              f"{report.frontiers_checked} frontiers "
              f"({'exhaustive' if report.exhaustive else 'budgeted'}) "
              f"-> {'clean' if report.clean else 'FAIL'}")
        if not report.clean:
            print("warning: verify comparison found counterexamples",
                  file=sys.stderr)
        records.append(
            {
                "scheme": str(report.scheme),
                "workload": report.workload,
                "instructions": report.instructions,
                "crash_points": report.positions,
                "frontiers_checked": report.frontiers_checked,
                "frontiers_total": report.frontiers_total,
                "exhaustive": report.exhaustive,
                "coverage": round(report.coverage, 6),
                "findings": len(report.findings),
                "wall_time_s": round(elapsed, 3),
            }
        )
    return {"budget": budget, "schemes": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_results.json"))
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="operation-count scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--label", default=None,
                        help="run label (default: short git HEAD)")
    parser.add_argument("--figures", nargs="*", default=None,
                        choices=sorted(REGISTRY), metavar="FIG",
                        help="subset of figures to run (default: all)")
    parser.add_argument("--fresh", action="store_true",
                        help="start a new trajectory instead of appending")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep cells "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache location "
                             "(default: REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--compare-runner", action="store_true",
                        help="also time serial vs parallel vs warm-cache "
                             "on one evaluation sweep")
    parser.add_argument("--compare-resilience", action="store_true",
                        help="also time undisturbed vs interrupted+resumed "
                             "on one evaluation sweep")
    parser.add_argument("--compare-faults", action="store_true",
                        help="also time one crash campaign cold vs "
                             "warm-checkpointed")
    parser.add_argument("--compare-verify", action="store_true",
                        help="also model-check one workload per "
                             "failure-safe scheme, recording frontier "
                             "counts and wall time")
    parser.add_argument("--verify-budget", type=int, default=None,
                        metavar="N",
                        help="frontier budget for --compare-verify "
                             "(default: exhaustive)")
    args = parser.parse_args(argv)

    from repro.bench.provenance import collect_provenance
    from repro.bench.schema import BenchResultsError, load_results
    from repro.parallel import configure_default_runner

    # Validate the existing trajectory up front: appending to a corrupt
    # or version-skewed file would silently orphan its history, so
    # refuse before paying for any sweeps.
    out = Path(args.out)
    previous_runs = []
    if out.exists() and not args.fresh:
        try:
            previous_runs = load_results(out)["runs"]
        except BenchResultsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("pass --fresh to start a new trajectory, or repair "
                  f"{out} first", file=sys.stderr)
            return 1

    runner = configure_default_runner(
        jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache
    )
    label = args.label if args.label is not None else _git_head()
    print(f"benchmark run '{label}': threads={args.threads} "
          f"scale={args.scale} seed={args.seed} jobs={runner.jobs}")
    comparison = None
    if args.compare_runner:
        comparison = compare_runner(
            args.threads, args.scale, args.seed,
            jobs=args.jobs if args.jobs and args.jobs > 1 else 4,
        )
    resilience_comparison = None
    if args.compare_resilience:
        resilience_comparison = compare_resilience(
            args.threads, args.scale, args.seed,
            jobs=args.jobs if args.jobs and args.jobs > 1 else 4,
        )
    faults_comparison = None
    if args.compare_faults:
        faults_comparison = compare_faults(args.seed)
    verify_comparison = None
    if args.compare_verify:
        verify_comparison = compare_verify(args.seed, args.verify_budget)
    start = time.perf_counter()
    figures = record_figures(args.threads, args.scale, args.seed, args.figures)
    total = time.perf_counter() - start
    print(f"  {runner.describe()}")

    doc = {"schema_version": TRAJECTORY_SCHEMA_VERSION,
           "runs": previous_runs}
    record = {
        "label": label,
        "threads": args.threads,
        "scale": args.scale,
        "seed": args.seed,
        "jobs": runner.jobs,
        "cache": runner.cache is not None,
        "total_wall_time_s": round(total, 3),
        "figures": figures,
        "provenance": collect_provenance(
            {
                "threads": args.threads,
                "scale": args.scale,
                "seed": args.seed,
                "jobs": runner.jobs,
                "cache": runner.cache is not None,
                "figures": sorted(args.figures) if args.figures else "all",
            },
            repo_root=REPO_ROOT,
        ),
    }
    if comparison is not None:
        record["runner_comparison"] = comparison
    if resilience_comparison is not None:
        record["resilience_comparison"] = resilience_comparison
    if faults_comparison is not None:
        record["faults_comparison"] = faults_comparison
    if verify_comparison is not None:
        record["verify_comparison"] = verify_comparison
    doc["runs"].append(record)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(doc['runs'])} run"
          f"{'s' if len(doc['runs']) != 1 else ''}, "
          f"{total:.1f}s this run)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
