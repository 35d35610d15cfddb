"""Command-line interface.

Subcommands:

* ``run`` — simulate one benchmark under one scheme and print stats.
* ``compare`` — run every scheme on one benchmark (mini Figure 6/8).
* ``experiment`` — regenerate one of the paper's figures/tables.
* ``faults`` — crash the *timing* simulator mid-flight (seeded campaign
  over cycle/trigger crash points, optionally with injected memory
  faults) and verify recovery from real microarchitectural state.
* ``lint`` — statically verify the persistency-ordering contract of the
  lowered instruction streams (``persist-lint``); exits nonzero on any
  error-severity diagnostic.
* ``verify`` — model-check every crash state the lowered instruction
  streams can reach (``persist-verify``): recovery must land on a
  transaction boundary; ``--budget`` samples and reports coverage.
* ``trace`` — run one benchmark with the cycle-level tracer attached and
  export a Chrome-trace JSON (Perfetto-loadable) plus a versioned
  summary with per-transaction critical-path attribution.
* ``profile`` — run the scheme×workload matrix and print the
  bottleneck-attribution report (where blocked cycles go, per scheme).
* ``chaos`` — turn the fault injection on the runner itself: seeded
  campaigns that SIGKILL workers mid-cell, hang them past the timeout,
  corrupt the journal and cache on disk, then assert every resumed run
  is byte-identical to an undisturbed serial run.
* ``snapshot`` — deterministic machine checkpoints: ``create``
  (simulate to an offset and store/write the checkpoint), ``inspect``
  (print its metadata), and ``resume`` (run the continuation to
  completion).
* ``bench`` — run-level results observability over the benchmark
  trajectory (``BENCH_results.json``): ``gate`` (paper-fidelity +
  baseline-drift regression gate; exits 1 on drift beyond tolerance),
  ``render`` (self-contained HTML dashboard, repro vs paper plus perf
  trajectory), ``figures`` (versioned Vega-Lite + CSV per registry
  figure), ``accept`` (snapshot the current run as the accepted
  baseline), and ``validate`` (schema-check the trajectory file).

Examples::

    python -m repro run --benchmark QE --scheme Proteus --ops 40
    python -m repro compare --benchmark AT --threads 2
    python -m repro experiment fig6 --threads 2 --scale 0.25 --seed 7
    python -m repro experiment fig11 --jobs 4 --cache-dir .repro-cache
    python -m repro experiment fig6 --jobs 4 --journal fig6.jsonl --resume
    python -m repro chaos --rounds 2 --jobs 2 --driver-kill
    python -m repro faults --scheme proteus --workload btree --crashes 200 --seed 7
    python -m repro lint --scheme all --workload all
    python -m repro lint --scheme pmem --workload btree --json
    python -m repro verify --scheme proteus --workload queue
    python -m repro trace --scheme proteus --workload hashmap --out trace.json
    python -m repro profile --scheme all --workload all --scale 0.1
    python -m repro snapshot create --workload QE --offset 20 --out qe.ckpt.json
    python -m repro snapshot inspect --in qe.ckpt.json
    python -m repro snapshot resume --in qe.ckpt.json
    python -m repro faults --scheme proteus --workload queue --warm-start 6
    python -m repro bench gate --fidelity-only
    python -m repro bench render --out dashboard.html

Scheme and workload names are forgiving: ``sw``/``pmem``, ``atom``,
``proteus``, ``btree``/``BT``, ``queue``/``QE``, … — an unknown name
exits with status 2 and the list of valid choices.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.figures import REGISTRY
from repro.core.schemes import BASELINE, Scheme
from repro.sim.config import dram_config, fast_nvm_config, slow_nvm_config
from repro.sim.simulator import run_trace
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces

CONFIGS = {
    "fast-nvm": fast_nvm_config,
    "slow-nvm": slow_nvm_config,
    "dram": dram_config,
}


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmark", "--workload", dest="benchmark", default="QE",
        help="paper code (QE/HM/SS/AT/BT/RT) or friendly name (queue, btree, ...)",
    )
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--init", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--memory", default="fast-nvm", choices=sorted(CONFIGS))


def _workload_cls(args):
    return resolve_workload(args.benchmark)


def _traces(args):
    return generate_traces(
        _workload_cls(args),
        threads=args.threads,
        seed=args.seed,
        init_ops=args.init,
        sim_ops=args.ops,
    )


def _config(args):
    return CONFIGS[args.memory](cores=args.threads)


def cmd_run(args) -> int:
    scheme = Scheme.parse(args.scheme)
    result = run_trace(_traces(args), scheme, _config(args))
    print(f"{_workload_cls(args).name} under {scheme} on {args.memory}:")
    print(f"  cycles:        {result.cycles:,}")
    print(f"  instructions:  {result.stats.instructions():,}")
    print(f"  IPC:           {result.ipc:.2f}")
    print(f"  NVM writes:    {result.nvm_writes:,}")
    print(f"  NVM reads:     {result.stats.nvm_reads():,}")
    if scheme.is_sshl:
        print(f"  LLT miss rate: {100 * result.stats.llt_miss_rate():.1f}%")
    if args.verbose:
        print()
        print(result.stats.format())
    return 0


def cmd_compare(args) -> int:
    traces = _traces(args)
    config = _config(args)
    results = {scheme: run_trace(traces, scheme, config) for scheme in Scheme}
    base = results[BASELINE]
    ideal_writes = max(1, results[Scheme.PMEM_NOLOG].nvm_writes)
    print(f"{_workload_cls(args).name} on {args.memory} "
          f"({args.threads} threads x {args.ops} transactions):")
    print(f"  {'scheme':15s} {'cycles':>10s} {'speedup':>8s} {'writes':>8s} {'vs ideal':>9s}")
    for scheme, result in results.items():
        print(f"  {scheme!s:15s} {result.cycles:>10,d} "
              f"{result.speedup_over(base):>8.2f} {result.nvm_writes:>8,d} "
              f"{result.nvm_writes / ideal_writes:>9.2f}")
    return 0


def _open_journal(args, default_name: str):
    """Resolve ``--journal``/``--resume`` into an open SweepJournal.

    ``--resume`` without an explicit path derives one under the cache
    directory, so ``--resume`` alone is enough to continue a killed run.
    Pointing ``--journal`` at an existing file *without* ``--resume``
    refuses — silently appending a fresh sweep to an old journal would
    mix campaigns.
    """
    import os

    from repro.parallel.cache import default_cache_dir
    from repro.parallel.journal import SweepJournal

    path = args.journal
    if path is None and args.resume:
        cache_dir = getattr(args, "cache_dir", None) or default_cache_dir()
        path = os.path.join(str(cache_dir), f"journal-{default_name}.jsonl")
    if path is None:
        return None
    if not args.resume and os.path.exists(path):
        raise ValueError(
            f"journal {path} already exists; pass --resume to continue that "
            f"run, or delete the file to start fresh"
        )
    return SweepJournal(path, label=default_name)


def _print_quarantine(notes: List[str]) -> None:
    if notes:
        print("quarantined cells (results are PARTIAL):", file=sys.stderr)
        for note in notes:
            print(f"  {note}", file=sys.stderr)


def cmd_experiment(args) -> int:
    from repro.analysis.summary import full_report
    from repro.parallel import configure_default_runner

    journal = _open_journal(args, f"experiment-{args.name}")
    runner = configure_default_runner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        journal=journal,
        cell_timeout=args.cell_timeout,
        max_retries=args.max_retries,
    )
    try:
        if args.name == "all":
            print(full_report(
                threads=args.threads, scale=args.scale, seed=args.seed
            ))
        else:
            result = REGISTRY[args.name].run(args.threads, args.scale, args.seed)
            print(result.report())
        print(runner.describe())
        _print_quarantine(runner.quarantine_notes())
        return 1 if runner.quarantined else 0
    finally:
        if journal is not None:
            journal.close()


def cmd_faults(args) -> int:
    from repro.faults import run_campaign

    journal = _open_journal(args, "faults")
    try:
        result = run_campaign(
            args.scheme,
            args.benchmark,
            crashes=args.crashes,
            seed=args.seed,
            threads=args.threads,
            mode=args.faults,
            trace_tail=args.trace_tail,
            init_ops=args.init,
            sim_ops=args.ops,
            think_instructions=args.think,
            warm_start_ops=args.warm_start,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    report = result.report()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    print(report if args.verbose else report.splitlines()[0])
    for line in report.splitlines()[1:3]:
        if not args.verbose:
            print(line)
    return 0 if result.passed else 1


def _cellspec(args):
    from repro.parallel.cellspec import CellSpec

    return CellSpec(
        workload=_workload_cls(args).name,
        scheme=Scheme.parse(args.scheme),
        config=_config(args),
        threads=args.threads,
        seed=args.seed,
        init_ops=args.init,
        sim_ops=args.ops,
    )


def _checkpoint_store(args):
    from repro.parallel.cache import ResultCache, default_cache_dir
    from repro.snapshot import CheckpointStore

    if args.no_cache:
        return None
    return CheckpointStore(ResultCache(args.cache_dir or default_cache_dir()))


def cmd_snapshot(args) -> int:
    import json

    from repro.snapshot import (
        SNAPSHOT_SCHEMA_VERSION,
        checkpoint_to_payload,
        create_checkpoint,
        payload_to_checkpoint,
        resume_run,
        snapshot_digest,
    )

    if args.action in ("inspect", "resume") and args.infile:
        with open(args.infile) as handle:
            checkpoint = payload_to_checkpoint(json.load(handle))
    else:
        cell = _cellspec(args)
        store = _checkpoint_store(args)
        if store is None:
            checkpoint = create_checkpoint(cell, args.offset)
        else:
            checkpoint = store.get_or_create(cell, args.offset)

    machine = checkpoint.machine
    if args.action == "create":
        print(f"{checkpoint.cell.workload} under {machine.scheme} "
              f"checkpointed at {checkpoint.op_offset}/{checkpoint.cell.sim_ops} "
              f"measured ops (detailed), cycle {machine.cycle:,}")
        print(f"  digest: {snapshot_digest(machine)}")
        if not args.no_cache:
            print(f"  {store.describe()}")
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(checkpoint_to_payload(checkpoint), handle,
                          sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.out}")
        return 0

    if args.action == "inspect":
        cell = checkpoint.cell
        print(f"checkpoint (detailed) — snapshot schema v{SNAPSHOT_SCHEMA_VERSION}")
        print(f"  cell:     {cell.workload} x {machine.scheme} "
              f"({cell.threads} thread(s), seed {cell.seed}, "
              f"init {cell.init_ops}, sim {cell.sim_ops})")
        print(f"  offset:   {checkpoint.op_offset} ops "
              f"({checkpoint.remaining_ops} remaining)")
        print(f"  cycle:    {machine.cycle:,}")
        print(f"  counters: {len(machine.counters)} "
              f"({sum(machine.counters.values()):,} events)")
        print(f"  digest:   {snapshot_digest(machine)}")
        return 0

    result = resume_run(checkpoint)
    print(f"resumed {checkpoint.cell.workload} under {machine.scheme} from "
          f"op {checkpoint.op_offset} (detailed checkpoint):")
    print(f"  cycles:       {result.cycles:,} (from {machine.cycle:,})")
    print(f"  instructions: {result.stats.instructions():,}")
    print(f"  IPC:          {result.ipc:.2f}")
    print(f"  NVM writes:   {result.nvm_writes:,}")
    return 0


def _run_sweep(args, sweep, **params):
    """Run the lint, verify or profile sweep over the cells ``args`` pick.

    ``--scheme``/``--workload`` choose the cells (``all`` means every
    one), ``--journal``/``--resume`` and ``--cell-timeout``/
    ``--max-retries`` how the sweep survives failures; ``params`` are
    the sweep's own parameters.
    """
    from repro.parallel.resilience import ResilienceConfig

    schemes = None if args.scheme == "all" else [Scheme.parse(args.scheme)]
    workloads = None if args.benchmark == "all" else [_workload_cls(args).name]
    journal = _open_journal(args, args.command)
    try:
        return sweep(
            schemes=schemes,
            workloads=workloads,
            threads=args.threads,
            seed=args.seed,
            jobs=args.jobs,
            resilience=ResilienceConfig.from_options(
                args.cell_timeout, args.max_retries
            ),
            journal=journal,
            **params,
        )
    finally:
        if journal is not None:
            journal.close()


def _print_matrix(args, sweep, render_json, render_text) -> None:
    """A lint or verify sweep as JSON, one cell's text, or its matrix."""
    if args.json:
        print(render_json(sweep.results))
    elif len(sweep.results) == 1 and not sweep.quarantined:
        print(render_text(sweep.results[0], verbose=args.verbose))
    else:
        print(sweep.report(verbose=args.verbose), end="")


def cmd_lint(args) -> int:
    from repro.analysis.lintsweep import lint_sweep
    from repro.lint import render_json, render_text, rule_catalog

    if args.rules:
        print(rule_catalog())
        return 0
    sweep = _run_sweep(args, lint_sweep, init_ops=args.init, sim_ops=args.ops)
    _print_matrix(args, sweep, render_json, render_text)
    return 0 if sweep.passed and not (args.strict_warnings and sweep.warnings) else 1


def cmd_verify(args) -> int:
    from repro.analysis.verifysweep import verifiable_schemes, verify_sweep
    from repro.verify import render_json, render_text, verify_to_sarif
    from repro.verify.report import VERIFY_RULES

    if args.rules:
        for code in sorted(VERIFY_RULES):
            level, title = VERIFY_RULES[code]
            print(f"{code}  {level:<7s} {title}")
        return 0
    if args.crossval:
        from repro.verify import check_containment, cross_validate

        schemes = (
            verifiable_schemes()
            if args.scheme == "all"
            else [Scheme.parse(args.scheme)]
        )
        workload = "QE" if args.benchmark == "all" else args.benchmark
        sizing = dict(init_ops=min(args.init, 40), sim_ops=min(args.ops, 8))
        ok = True
        for scheme in schemes:
            result = cross_validate(
                scheme, workload, seed=args.seed, budget=args.budget, **sizing
            )
            print(result.report(), end="")
            contained = check_containment(
                scheme, workload, threads=args.threads, seed=args.seed, **sizing
            )
            print(contained.report(), end="")
            ok = ok and result.static_superset and contained.ok
        return 0 if ok else 1
    sweep = _run_sweep(
        args, verify_sweep, init_ops=args.init, sim_ops=args.ops,
        budget=args.budget,
    )
    if args.sarif:
        import json

        with open(args.sarif, "w") as handle:
            json.dump(verify_to_sarif(sweep.results), handle, indent=2)
        # On stderr: with --json, stdout holds only the JSON document.
        print(f"wrote SARIF report to {args.sarif}", file=sys.stderr)
    _print_matrix(args, sweep, render_json, render_text)
    return 0 if sweep.passed else 1


def cmd_bench(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis.figures import emit_figures
    from repro.bench import (
        BenchResultsError,
        build_baseline,
        load_baseline,
        load_results,
        render_dashboard,
        run_gate,
    )
    from repro.bench.gate import DEFAULT_DRIFT_TOLERANCE

    try:
        doc = load_results(args.results)
    except BenchResultsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.action == "validate":
        print(f"{args.results}: valid "
              f"(schema v{doc['schema_version']}, {len(doc['runs'])} runs)")
        return 0

    if args.action == "accept":
        baseline = build_baseline(doc)
        path = Path(args.baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"accepted baseline from {len(baseline['figures'])} figures "
              f"-> {path}")
        return 0

    if args.action == "figures":
        paths = emit_figures(doc, args.out_dir, args.figures)
        for path in paths:
            print(f"wrote {path}")
        return 0

    baseline = None
    baseline_problem = None
    if not args.fidelity_only:
        try:
            baseline = load_baseline(args.baseline)
        except BenchResultsError as err:
            baseline_problem = str(err)

    drift = (
        DEFAULT_DRIFT_TOLERANCE
        if args.drift_tolerance is None
        else args.drift_tolerance
    )
    report = run_gate(
        doc, baseline=baseline, fidelity_only=args.fidelity_only,
        drift_tolerance=drift,
    )

    if args.action == "render":
        html = render_dashboard(doc, report)
        with open(args.out, "w") as handle:
            handle.write(html)
        print(f"wrote {args.out} ({len(doc['runs'])} runs, "
              f"{len(report.findings)} gate findings)")
        return 0

    if baseline_problem is not None:
        print(f"warning: {baseline_problem}", file=sys.stderr)
    print(report.render(), end="")
    return report.exit_code


def cmd_trace(args) -> int:
    from repro.obs import (
        Tracer,
        ascii_timeline,
        build_tx_spans,
        chrome_trace,
        render_summary_json,
        summary_json,
        to_chrome_json,
        validate_chrome_trace,
        validate_summary,
    )

    scheme = Scheme.parse(args.scheme)
    workload = _workload_cls(args).name
    tracer = Tracer(sample_interval=args.sample_interval)
    result = run_trace(_traces(args), scheme, _config(args), tracer=tracer)
    events = tracer.events
    spans = build_tx_spans(events)

    doc = chrome_trace(
        events,
        spans,
        metadata={
            "scheme": str(scheme),
            "workload": workload,
            "threads": args.threads,
            "seed": args.seed,
        },
    )
    summary = summary_json(
        events, str(scheme), workload, result.cycles,
        stats=result.stats.snapshot(), spans=spans,
    )
    problems = validate_chrome_trace(doc) + validate_summary(summary)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1

    with open(args.out, "w") as handle:
        handle.write(to_chrome_json(doc))
    print(f"{workload} under {scheme}: {result.cycles:,} cycles, "
          f"{tracer.emitted:,} events, {len(spans)} transactions")
    print(f"wrote {args.out}  (load in Perfetto / chrome://tracing)")
    if args.summary_out:
        with open(args.summary_out, "w") as handle:
            handle.write(render_summary_json(summary) + "\n")
        print(f"wrote {args.summary_out}")
    blocked = summary["transactions"]["blocked_cycles"]
    print("blocked cycles: " + "  ".join(
        f"{name}={blocked[name]:,}" for name in ("logging", "memory", "fence")
    ))
    if args.ascii:
        print()
        print(ascii_timeline(events, spans))
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profiling import DEFAULT_PROFILE_SCALE, profile_sweep

    sweep = _run_sweep(
        args,
        profile_sweep,
        scale=DEFAULT_PROFILE_SCALE if args.scale is None else args.scale,
    )
    print(sweep.report())
    # Quarantined cells leave the attribution incomplete.
    return 1 if sweep.quarantined else 0


def cmd_chaos(args) -> int:
    from repro.parallel.chaos import run_chaos_campaign

    campaign = run_chaos_campaign(
        rounds=args.rounds,
        seed=args.seed,
        jobs=args.jobs,
        cell_timeout=args.cell_timeout,
        work_dir=args.work_dir,
        keep=args.keep,
        driver_kill=args.driver_kill,
        scale=args.scale,
    )
    print(campaign.report())
    return 0 if campaign.ok else 1


def _add_resilience_args(
    parser: argparse.ArgumentParser,
    what: str = "cells",
    timeouts: bool = True,
) -> None:
    """Crash-safety flags shared by every sweep-shaped subcommand."""
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="journal every task write-ahead to FILE (JSONL); a killed "
             "run resumes from it with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the journal, executing only unfinished "
             f"{what} (derives the journal path when --journal is omitted)",
    )
    if not timeouts:
        return
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help=f"wall-clock budget per attempt; stuck {what} are retried "
             "on a rebuilt worker pool",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries before a failing cell is quarantined (reported, "
             "not fatal; the rest of the sweep completes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Proteus NVM logging reproduction"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one scheme")
    _add_workload_args(run_parser)
    run_parser.add_argument("--scheme", default="Proteus")
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.set_defaults(func=cmd_run)

    compare_parser = subparsers.add_parser("compare", help="all schemes")
    _add_workload_args(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate a paper figure/table"
    )
    experiment_parser.add_argument("name", choices=sorted(REGISTRY) + ["all"])
    experiment_parser.add_argument("--threads", type=int, default=4)
    experiment_parser.add_argument("--scale", type=float, default=None)
    experiment_parser.add_argument("--seed", type=int, default=None)
    experiment_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulate up to N sweep cells in parallel worker processes "
             "(default: REPRO_JOBS or 1)",
    )
    experiment_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    experiment_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache location (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    _add_resilience_args(experiment_parser, what="sweep cells")
    experiment_parser.set_defaults(func=cmd_experiment)

    faults_parser = subparsers.add_parser(
        "faults",
        help="seeded crash campaign against the timing simulator",
    )
    from repro.faults.campaign import FAULT_MODES

    faults_parser.add_argument("--scheme", default="proteus")
    faults_parser.add_argument(
        "--workload", "--benchmark", dest="benchmark", default="queue",
        help="paper code (QE/BT/...) or friendly name (queue, btree, ...)",
    )
    faults_parser.add_argument("--crashes", type=int, default=200)
    faults_parser.add_argument("--seed", type=int, default=7)
    faults_parser.add_argument("--threads", type=int, default=1)
    faults_parser.add_argument("--ops", type=int, default=4)
    faults_parser.add_argument("--init", type=int, default=12)
    faults_parser.add_argument(
        "--think", type=int, default=0,
        help="compute instructions between transactions",
    )
    faults_parser.add_argument(
        "--faults", default="none", choices=FAULT_MODES,
        help="memory-fault mode injected alongside the crashes",
    )
    faults_parser.add_argument("--out", default=None,
                               help="write the full report to this file")
    faults_parser.add_argument("--verbose", action="store_true",
                               help="print the per-case report")
    faults_parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="CYCLES",
        help="record a pre-crash event ring buffer and attach the "
             "trailing CYCLES of events to every crash capture",
    )
    faults_parser.add_argument(
        "--warm-start", type=int, default=0, metavar="OPS",
        help="simulate OPS transactions once, checkpoint the quiesced "
             "machine, and launch every crash case from that warm state",
    )
    _add_resilience_args(faults_parser, what="crash cases", timeouts=False)
    faults_parser.set_defaults(func=cmd_faults)

    snapshot_parser = subparsers.add_parser(
        "snapshot",
        help="machine checkpoints (create/inspect/resume)",
    )
    snapshot_parser.add_argument(
        "action", choices=["create", "inspect", "resume"]
    )
    _add_workload_args(snapshot_parser)
    snapshot_parser.add_argument("--scheme", default="Proteus")
    snapshot_parser.add_argument(
        "--offset", type=int, default=0, metavar="OPS",
        help="measured-op offset of the checkpoint (create/inspect/resume)",
    )
    snapshot_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the checkpoint JSON here (create)",
    )
    snapshot_parser.add_argument(
        "--in", dest="infile", default=None, metavar="FILE",
        help="read the checkpoint JSON from here (inspect/resume)",
    )
    snapshot_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="checkpoint store location (default: REPRO_CACHE_DIR or "
             ".repro-cache)",
    )
    snapshot_parser.add_argument(
        "--no-cache", action="store_true",
        help="build checkpoints in memory only, skip the store",
    )
    snapshot_parser.set_defaults(func=cmd_snapshot)

    bench_parser = subparsers.add_parser(
        "bench",
        help="results observability: regression gate, dashboard, figures",
    )
    bench_parser.add_argument(
        "action", choices=["gate", "render", "figures", "accept", "validate"]
    )
    bench_parser.add_argument(
        "--results", default="BENCH_results.json", metavar="FILE",
        help="benchmark trajectory file (default: BENCH_results.json)",
    )
    bench_parser.add_argument(
        "--baseline", default="benchmarks/BASELINE.json", metavar="FILE",
        help="accepted-baseline file (default: benchmarks/BASELINE.json)",
    )
    bench_parser.add_argument(
        "--fidelity-only", action="store_true",
        help="gate against the paper's numbers only; skip baseline drift",
    )
    bench_parser.add_argument(
        "--drift-tolerance", type=float, default=None, metavar="REL",
        help="relative drift allowed vs the baseline (default 0.05)",
    )
    bench_parser.add_argument(
        "--out", default="dashboard.html", metavar="FILE",
        help="dashboard output path (render)",
    )
    bench_parser.add_argument(
        "--out-dir", default="figures", metavar="DIR",
        help="Vega-Lite/CSV output directory (figures)",
    )
    bench_parser.add_argument(
        "--figures", nargs="*", default=None, metavar="FIG",
        help="subset of registry figures to emit (figures)",
    )
    bench_parser.set_defaults(func=cmd_bench)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically verify persistency ordering of lowered streams",
    )
    lint_parser.add_argument(
        "--scheme", default="all",
        help="scheme name or 'all' (default) for every bundled scheme",
    )
    lint_parser.add_argument(
        "--workload", "--benchmark", dest="benchmark", default="all",
        help="paper code, friendly name, or 'all' (default)",
    )
    lint_parser.add_argument("--threads", type=int, default=1)
    lint_parser.add_argument("--ops", type=int, default=20,
                             help="transactions per thread to lint")
    lint_parser.add_argument("--init", type=int, default=200)
    lint_parser.add_argument("--seed", type=int, default=42)
    lint_parser.add_argument("--json", action="store_true",
                             help="emit the stable JSON report")
    lint_parser.add_argument("--rules", action="store_true",
                             help="print the rule catalog and exit")
    lint_parser.add_argument("--strict-warnings", action="store_true",
                             help="exit 1 on warnings too")
    lint_parser.add_argument("--verbose", action="store_true",
                             help="print every diagnostic, warnings included")
    lint_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint up to N matrix cells in parallel worker processes",
    )
    _add_resilience_args(lint_parser, what="matrix cells")
    lint_parser.set_defaults(func=cmd_lint)

    verify_parser = subparsers.add_parser(
        "verify",
        help="model-check every reachable crash state of lowered streams",
    )
    verify_parser.add_argument(
        "--scheme", default="all",
        help="scheme name or 'all' (default) for every failure-safe scheme",
    )
    verify_parser.add_argument(
        "--workload", "--benchmark", dest="benchmark", default="all",
        help="paper code, friendly name, or 'all' (default)",
    )
    verify_parser.add_argument("--threads", type=int, default=1)
    verify_parser.add_argument("--ops", type=int, default=6,
                               help="transactions per thread to check")
    verify_parser.add_argument("--init", type=int, default=12)
    verify_parser.add_argument("--seed", type=int, default=42)
    verify_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="cap frontiers checked per crash point; falls back to "
             "stratified sampling with an explicit coverage report",
    )
    verify_parser.add_argument("--json", action="store_true",
                               help="emit the stable JSON report")
    verify_parser.add_argument("--sarif", default=None, metavar="FILE",
                               help="also write a SARIF 2.1.0 report to FILE")
    verify_parser.add_argument("--rules", action="store_true",
                               help="print the rule catalog and exit")
    verify_parser.add_argument(
        "--crossval", action="store_true",
        help="cross-validate the checker against the dynamic fault "
             "campaign (static must subsume every analog-able mode, and "
             "every campaign crash image must be a verify frontier)",
    )
    verify_parser.add_argument("--verbose", action="store_true",
                               help="print every counterexample in full")
    verify_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="check up to N matrix cells in parallel worker processes",
    )
    _add_resilience_args(verify_parser, what="matrix cells")
    verify_parser.set_defaults(func=cmd_verify)

    trace_parser = subparsers.add_parser(
        "trace",
        help="trace one run and export Chrome-trace JSON + summary",
    )
    _add_workload_args(trace_parser)
    trace_parser.add_argument("--scheme", default="Proteus")
    trace_parser.add_argument("--out", default="trace.json",
                              help="Chrome-trace JSON output path")
    trace_parser.add_argument("--summary-out", default=None,
                              help="also write the versioned JSON summary here")
    trace_parser.add_argument(
        "--sample-interval", type=int, default=100, metavar="CYCLES",
        help="occupancy sampling period in cycles (default 100)",
    )
    trace_parser.add_argument("--ascii", action="store_true",
                              help="print the ASCII transaction timeline")
    trace_parser.set_defaults(func=cmd_trace)

    profile_parser = subparsers.add_parser(
        "profile",
        help="bottleneck-attribution sweep over scheme x workload",
    )
    profile_parser.add_argument("--scheme", default="all",
                                help="scheme name or 'all' (default)")
    profile_parser.add_argument(
        "--workload", "--benchmark", dest="benchmark", default="all",
        help="paper code, friendly name, or 'all' (default)",
    )
    profile_parser.add_argument("--threads", type=int, default=1)
    profile_parser.add_argument("--scale", type=float, default=None)
    profile_parser.add_argument("--seed", type=int, default=7)
    profile_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N matrix cells in parallel worker processes",
    )
    _add_resilience_args(profile_parser, what="matrix cells")
    profile_parser.set_defaults(func=cmd_profile)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="fault-inject the sweep runner itself and assert convergence",
    )
    chaos_parser.add_argument(
        "--rounds", type=int, default=2,
        help="seeded disturbance rounds (worker kills, hangs, torn "
             "journals, corrupted caches)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the disturbed runs",
    )
    chaos_parser.add_argument(
        "--cell-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-attempt budget used to reclaim deliberately hung workers",
    )
    chaos_parser.add_argument(
        "--driver-kill", action="store_true",
        help="also SIGKILL the real CLI driver mid-sweep repeatedly and "
             "resume it until fig6 completes",
    )
    chaos_parser.add_argument(
        "--scale", type=float, default=0.05,
        help="workload scale of the driver-kill fig6 sweep",
    )
    chaos_parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="keep campaign artifacts here instead of a throwaway tempdir",
    )
    chaos_parser.add_argument(
        "--keep", action="store_true",
        help="keep the throwaway tempdir for post-mortem inspection",
    )
    chaos_parser.set_defaults(func=cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        # Unknown scheme/workload/mode: a clean diagnostic, not a traceback.
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
