"""Command-line interface.

Subcommands:

* ``run`` — simulate one benchmark under one scheme and print stats.
* ``compare`` — run every scheme on one benchmark (mini Figure 6/8).
* ``experiment`` — regenerate one of the paper's figures/tables.
* ``crash`` — crash-inject the *functional* model and verify recovery.
* ``faults`` — crash the *timing* simulator mid-flight (seeded campaign
  over cycle/trigger crash points, optionally with injected memory
  faults) and verify recovery from real microarchitectural state.
* ``lint`` — statically verify the persistency-ordering contract of the
  lowered instruction streams (``persist-lint``); exits nonzero on any
  error-severity diagnostic.
* ``trace`` — run one benchmark with the cycle-level tracer attached and
  export a Chrome-trace JSON (Perfetto-loadable) plus a versioned
  summary with per-transaction critical-path attribution.
* ``profile`` — trace the scheme×workload matrix and print the
  bottleneck-attribution report (where blocked cycles go, per scheme).
* ``chaos`` — turn the fault injection on the runner itself: seeded
  campaigns that SIGKILL workers mid-cell, hang them past the timeout,
  corrupt the journal and cache on disk, then assert every resumed run
  is byte-identical to an undisturbed serial run.
* ``snapshot`` — deterministic machine checkpoints and sampled
  simulation: ``create`` (simulate or fast-forward to an offset and
  store/write the checkpoint), ``inspect`` (print its metadata),
  ``resume`` (run the continuation to completion), and ``sample``
  (SMARTS-style interval sampling with per-metric confidence
  intervals; exits 1 when a CI exceeds the threshold).
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
    python -m repro crash --benchmark HM --crashes 100 --scheme ATOM
    python -m repro faults --scheme proteus --workload btree --crashes 200 --seed 7
    python -m repro lint --scheme all --workload all
    python -m repro lint --scheme pmem --workload btree --json
    python -m repro trace --scheme proteus --workload hashmap --out trace.json
    python -m repro profile --scheme all --workload all --scale 0.1
    python -m repro snapshot create --workload QE --offset 20 --out qe.ckpt.json
    python -m repro snapshot inspect --in qe.ckpt.json
    python -m repro snapshot resume --in qe.ckpt.json
    python -m repro snapshot sample --workload HM --ops 200 --intervals 7
    python -m repro faults --scheme proteus --workload queue --warm-start 6
    python -m repro bench gate --fidelity-only
    python -m repro bench render --out dashboard.html

Scheme and workload names are forgiving: ``sw``/``pmem``, ``atom``,
``proteus``, ``btree``/``BT``, ``queue``/``QE``, … — an unknown name
exits with status 2 and the list of valid choices.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.core.schemes import BASELINE, Scheme
from repro.sim.config import dram_config, fast_nvm_config, slow_nvm_config
from repro.sim.simulator import run_trace
from repro.workloads import BENCHMARK_ORDER
from repro.workloads.base import generate_traces

CONFIGS = {
    "fast-nvm": fast_nvm_config,
    "slow-nvm": slow_nvm_config,
    "dram": dram_config,
}

EXPERIMENTS = {
    "fig6": "fig6_speedup_nvm",
    "fig7": "fig7_frontend_stalls",
    "fig8": "fig8_nvm_writes",
    "fig9": "fig9_slow_nvm",
    "fig10": "fig10_dram",
    "fig11": "fig11_logq_sweep",
    "fig12": "fig12_lpq_sweep",
    "table3": "table3_large_transactions",
    "table4": "table4_llt_miss_rate",
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
    from repro.faults.campaign import resolve_workload

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


def _resilience_config(args):
    """Build a ResilienceConfig from ``--cell-timeout``/``--max-retries``."""
    from repro.parallel.resilience import ResilienceConfig

    cell_timeout = getattr(args, "cell_timeout", None)
    max_retries = getattr(args, "max_retries", None)
    if cell_timeout is None and max_retries is None:
        return None
    defaults = ResilienceConfig()
    return ResilienceConfig(
        cell_timeout=cell_timeout,
        max_retries=(
            max_retries if max_retries is not None else defaults.max_retries
        ),
    )


def _print_quarantine(notes: List[str]) -> None:
    if notes:
        print("quarantined cells (results are PARTIAL):", file=sys.stderr)
        for note in notes:
            print(f"  {note}", file=sys.stderr)


def cmd_experiment(args) -> int:
    import repro.analysis as analysis
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
            from repro.analysis.summary import full_report

            print(full_report(
                threads=args.threads, scale=args.scale, seed=args.seed
            ))
            print(runner.describe())
            _print_quarantine(runner.quarantine_notes())
            return 1 if runner.quarantined else 0
        function = getattr(analysis, EXPERIMENTS[args.name])
        kwargs = {}
        if args.name not in ("table3",):
            kwargs["threads"] = args.threads
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if args.seed is not None:
            kwargs["seed"] = args.seed
        result = function(**kwargs)
        print(result.report())
        print(runner.describe())
        _print_quarantine(runner.quarantine_notes())
        return 1 if runner.quarantined else 0
    finally:
        if journal is not None:
            journal.close()


def cmd_crash(args) -> int:
    from repro.persistence import build_functional_txs, crash_image, image_after, recover
    from repro.persistence.crash import CrashPoint, Phase
    from repro.persistence.recovery import verify_atomicity

    scheme = Scheme.parse(args.scheme)
    if not scheme.failure_safe:
        print(f"{scheme} is not failure safe; nothing to verify", file=sys.stderr)
        return 2
    workload = _workload_cls(args)(
        thread_id=0, seed=args.seed, init_ops=args.init, sim_ops=args.ops
    )
    trace = workload.generate()
    initial, txs = build_functional_txs(trace, scheme)
    candidates = [image_after(initial, txs, k) for k in range(len(txs) + 1)]
    rng = random.Random(args.seed)
    phases = [Phase.BEFORE, Phase.IN_FLIGHT, Phase.FLUSHED, Phase.COMMITTED]
    if scheme.is_software:
        phases += [Phase.LOGGING, Phase.FLAGGED]
    for index in range(args.crashes):
        k = rng.randrange(len(txs))
        phase = rng.choice(phases)
        data = None
        if phase is Phase.IN_FLIGHT and scheme.is_software:
            n = len(txs[k].written_lines)
            data = frozenset(i for i in range(n) if rng.random() < 0.5)
        image = crash_image(initial, txs, scheme,
                            CrashPoint(k, phase, data_durable=data))
        recovered = recover(image)
        verify_atomicity(recovered, candidates)
    print(f"{args.crashes} random crashes under {scheme}: "
          f"all recovered to a transaction boundary")
    return 0


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


def _snapshot_sample(args) -> int:
    from repro.parallel.cache import ResultCache, default_cache_dir
    from repro.parallel.runner import SweepRunner
    from repro.snapshot import SamplingError, SamplingParams

    cache = None if args.no_cache else ResultCache(
        args.cache_dir or default_cache_dir()
    )
    runner = SweepRunner(jobs=1, cache=cache)
    cell = _cellspec(args)
    params = SamplingParams(
        intervals=args.intervals,
        warmup_ops=args.warmup,
        measure_ops=args.measure,
        confidence=args.confidence,
        max_rel_ci=args.max_rel_ci,
    )
    try:
        report = runner.run_sampled([cell], params, strict=not args.lenient)[0]
    except SamplingError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    full_ops = cell.sim_ops * max(1, cell.threads)
    print(f"{cell.workload} under {cell.scheme} sampled at "
          f"{len(report.offsets)} interval(s): "
          f"{report.detailed_ops}/{full_ops} ops simulated in detail")
    for name, estimate in sorted(report.estimates.items()):
        print(f"  {name:20s} {estimate.mean:10.4f} "
              f"± {estimate.ci_half_width:.4f} "
              f"({estimate.rel_ci:.2%} at {params.confidence:.0%} confidence)")
    print(runner.describe())
    return 0


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

    if args.action == "sample":
        return _snapshot_sample(args)

    if args.action in ("inspect", "resume") and args.infile:
        with open(args.infile) as handle:
            checkpoint = payload_to_checkpoint(json.load(handle))
    else:
        cell = _cellspec(args)
        store = _checkpoint_store(args)
        if store is None:
            checkpoint = create_checkpoint(cell, args.offset, kind=args.kind)
        else:
            checkpoint = store.get_or_create(cell, args.offset, kind=args.kind)

    machine = checkpoint.machine
    if args.action == "create":
        print(f"{checkpoint.cell.workload} under {machine.scheme} "
              f"checkpointed at {checkpoint.op_offset}/{checkpoint.cell.sim_ops} "
              f"measured ops ({checkpoint.kind}), cycle {machine.cycle:,}")
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
        print(f"checkpoint ({checkpoint.kind}) — snapshot schema "
              f"v{SNAPSHOT_SCHEMA_VERSION}")
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
          f"op {checkpoint.op_offset} ({checkpoint.kind} checkpoint):")
    print(f"  cycles:       {result.cycles:,} (from {machine.cycle:,})")
    print(f"  instructions: {result.stats.instructions():,}")
    print(f"  IPC:          {result.ipc:.2f}")
    print(f"  NVM writes:   {result.nvm_writes:,}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lintsweep import lint_sweep
    from repro.lint import render_json, render_text, rule_catalog
    from repro.workloads import BENCHMARK_ORDER

    if args.rules:
        print(rule_catalog())
        return 0
    schemes = None if args.scheme == "all" else [Scheme.parse(args.scheme)]
    if args.benchmark == "all":
        workloads = list(BENCHMARK_ORDER)
    else:
        from repro.faults.campaign import resolve_workload

        workloads = [resolve_workload(args.benchmark).name]
    journal = _open_journal(args, "lint")
    try:
        sweep = lint_sweep(
            schemes=schemes,
            workloads=workloads,
            threads=args.threads,
            seed=args.seed,
            init_ops=args.init,
            sim_ops=args.ops,
            jobs=args.jobs,
            resilience=_resilience_config(args),
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    if args.json:
        print(render_json(sweep.results))
    elif len(sweep.results) == 1 and not sweep.quarantined:
        print(render_text(sweep.results[0], verbose=args.verbose))
    else:
        print(sweep.report(verbose=args.verbose), end="")
    if sweep.quarantined:
        # Unlintable cells mean the gate's verdict is incomplete.
        return 1
    if not sweep.passed:
        return 1
    if args.strict_warnings and sweep.warnings:
        return 1
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.verifysweep import verifiable_schemes, verify_sweep
    from repro.verify import render_json, render_text, verify_to_sarif
    from repro.verify.report import VERIFY_RULES
    from repro.workloads import BENCHMARK_ORDER

    if args.rules:
        for code in sorted(VERIFY_RULES):
            level, title = VERIFY_RULES[code]
            print(f"{code}  {level:<7s} {title}")
        return 0
    if args.crossval:
        from repro.verify import cross_validate

        schemes = (
            verifiable_schemes()
            if args.scheme == "all"
            else [Scheme.parse(args.scheme)]
        )
        workload = "QE" if args.benchmark == "all" else args.benchmark
        ok = True
        for scheme in schemes:
            result = cross_validate(
                scheme, workload, seed=args.seed, budget=args.budget,
                init_ops=min(args.init, 40), sim_ops=min(args.ops, 8),
            )
            print(result.report(), end="")
            ok = ok and result.static_superset
        return 0 if ok else 1
    schemes = None if args.scheme == "all" else [Scheme.parse(args.scheme)]
    if args.benchmark == "all":
        workloads = list(BENCHMARK_ORDER)
    else:
        from repro.faults.campaign import resolve_workload

        workloads = [resolve_workload(args.benchmark).name]
    journal = _open_journal(args, "verify")
    try:
        sweep = verify_sweep(
            schemes=schemes,
            workloads=workloads,
            threads=args.threads,
            seed=args.seed,
            init_ops=args.init,
            sim_ops=args.ops,
            budget=args.budget,
            jobs=args.jobs,
            resilience=_resilience_config(args),
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    if args.sarif:
        import json as _json

        with open(args.sarif, "w") as handle:
            _json.dump(verify_to_sarif(sweep.results), handle, indent=2)
        print(f"wrote SARIF report to {args.sarif}")
    if args.json:
        print(render_json(sweep.results))
    elif len(sweep.results) == 1 and not sweep.quarantined:
        print(render_text(sweep.results[0], verbose=args.verbose))
    else:
        print(sweep.report(verbose=args.verbose), end="")
    if sweep.quarantined:
        # Uncheckable cells mean the gate's verdict is incomplete.
        return 1
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
    from repro.faults.campaign import resolve_workload

    schemes = None if args.scheme == "all" else [Scheme.parse(args.scheme)]
    if args.benchmark == "all":
        workloads = None
    else:
        workloads = [resolve_workload(args.benchmark).name]
    journal = _open_journal(args, "profile")
    try:
        sweep = profile_sweep(
            schemes=schemes,
            workloads=workloads,
            threads=args.threads,
            scale=DEFAULT_PROFILE_SCALE if args.scale is None else args.scale,
            seed=args.seed,
            jobs=args.jobs,
            resilience=_resilience_config(args),
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    print(sweep.report())
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
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
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

    crash_parser = subparsers.add_parser("crash", help="crash/recovery check")
    _add_workload_args(crash_parser)
    crash_parser.add_argument("--scheme", default="Proteus")
    crash_parser.add_argument("--crashes", type=int, default=100)
    crash_parser.set_defaults(func=cmd_crash)

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
        help="machine checkpoints (create/inspect/resume) and sampled runs",
    )
    snapshot_parser.add_argument(
        "action", choices=["create", "inspect", "resume", "sample"]
    )
    _add_workload_args(snapshot_parser)
    snapshot_parser.add_argument("--scheme", default="Proteus")
    snapshot_parser.add_argument(
        "--offset", type=int, default=0, metavar="OPS",
        help="measured-op offset of the checkpoint (create/inspect/resume)",
    )
    snapshot_parser.add_argument(
        "--kind", default="detailed", choices=["detailed", "functional"],
        help="checkpoint fidelity: simulate the prefix (detailed) or "
             "fast-forward it functionally",
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
    snapshot_parser.add_argument("--intervals", type=int, default=5,
                                 help="sampling intervals (sample)")
    snapshot_parser.add_argument("--warmup", type=int, default=10,
                                 help="detailed warmup ops per interval")
    snapshot_parser.add_argument("--measure", type=int, default=20,
                                 help="detailed measured ops per interval")
    snapshot_parser.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level for the per-metric intervals",
    )
    snapshot_parser.add_argument(
        "--max-rel-ci", type=float, default=0.02,
        help="refuse the report when a relative CI half-width exceeds this",
    )
    snapshot_parser.add_argument(
        "--lenient", action="store_true",
        help="report estimates even when a CI exceeds the threshold",
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
             "campaign (static must subsume every analog-able mode)",
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
        help="trace up to N matrix cells in parallel worker processes",
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
