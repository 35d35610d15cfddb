"""Chaos harness: fault injection for the sweep runner itself.

PR 1-5 pointed fault injection at the *simulated machine*; this module
points it at the *execution layer*.  A chaos campaign runs a small cell
matrix through the journaled, self-healing runner while deliberately
breaking everything around it — SIGKILLing workers mid-cell, hanging
workers past the cell timeout, injecting transient and permanent task
failures, truncating the journal tail, corrupting and deleting cache
entries, and pointing the cache at an unwritable location — and then
asserts the recovered results are **byte-identical** to an undisturbed
serial run.  That is the same convergence bar the crash campaigns hold
the simulated schemes to.

Injection mechanism: the worker entry point
(:func:`repro.parallel.runner._simulate_cell_payload`) calls
:func:`apply_chaos_directive` when the ``REPRO_CHAOS_PLAN`` environment
variable names a plan file.  The plan maps cell keys to directives:

``kill``
    the worker SIGKILLs itself (breaks the whole pool) — fires once.
``hang``
    the worker sleeps far past the cell timeout — fires once.
``fail``
    the worker raises a transient ``RuntimeError`` — fires once.
``poison``
    the worker raises on **every** attempt; the cell must end up
    quarantined, and the rest of the sweep must still converge.
``interrupt``
    the worker raises ``KeyboardInterrupt`` — fires once (used by the
    prompt-cancellation regression test).

"Fires once" is tracked with marker files on disk, not in-process
state, because the whole point is that the process holding the state
may die mid-cell.

A separate **driver-kill** round turns the gun on the sweep driver: it
launches the real CLI (``python -m repro experiment fig6 --resume``)
in a subprocess with ``REPRO_CHAOS_KILL_AFTER=n`` so the *driver
process* SIGKILLs itself after every ``n`` journal appends, re-launches
it until the sweep completes, and verifies the journal's recorded
payloads byte-match an in-process serial reference.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.schemes import BASELINE, FIGURE_ORDER, Scheme
from repro.parallel.cache import ResultCache
from repro.parallel.cellspec import (
    CellSpec,
    canonical_json,
    repo_code_version,
    result_bytes,
    result_to_payload,
)
from repro.parallel.journal import KILL_AFTER_ENV, SweepJournal
from repro.parallel.resilience import ResilienceConfig
from repro.sim.config import fast_nvm_config

#: Environment variable naming the active chaos plan file.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Directives a plan may assign to a cell.
CHAOS_DIRECTIVES = ("kill", "hang", "fail", "poison", "interrupt")

#: Directives that fire on every attempt (no marker file).
_ALWAYS_FIRE = ("poison",)


class ChaosPoisonError(RuntimeError):
    """Injected permanent failure: the cell must be quarantined."""


def chaos_cell_key(spec_data: Mapping[str, Any]) -> str:
    """The plan key for one cell: ``workload/scheme/s<seed>``."""
    return (
        f"{spec_data['workload']}/{spec_data['scheme']}/s{spec_data['seed']}"
    )


def write_chaos_plan(
    path: "Path | str",
    cells: Mapping[str, str],
    marker_dir: "Path | str",
    hang_seconds: float = 30.0,
) -> Path:
    """Write a chaos plan file; point ``REPRO_CHAOS_PLAN`` at it."""
    for key, directive in cells.items():
        if directive not in CHAOS_DIRECTIVES:
            raise ValueError(
                f"unknown chaos directive {directive!r} for {key!r}"
            )
    plan_path = Path(path)
    marker_path = Path(marker_dir)
    marker_path.mkdir(parents=True, exist_ok=True)
    plan_path.write_text(
        canonical_json(
            {
                "cells": dict(cells),
                "marker_dir": str(marker_path),
                "hang_seconds": hang_seconds,
            }
        )
    )
    return plan_path


def apply_chaos_directive(spec_data: Mapping[str, Any]) -> None:
    """Execute the plan's directive for this cell (worker-side hook).

    No-op without a readable plan or when the cell has no directive (or
    its one-shot directive already fired).  Runs *before* simulation so
    a killed worker dies mid-cell from the runner's point of view.
    """
    plan_path = os.environ.get(CHAOS_PLAN_ENV)
    if not plan_path:
        return
    try:
        plan = json.loads(Path(plan_path).read_text())
    except (OSError, ValueError):
        return
    key = chaos_cell_key(spec_data)
    directive = plan.get("cells", {}).get(key)
    if directive not in CHAOS_DIRECTIVES:
        return
    if directive not in _ALWAYS_FIRE:
        marker_dir = Path(plan.get("marker_dir", Path(plan_path).parent))
        marker = marker_dir / f"{key.replace('/', '_')}.{directive}.fired"
        try:
            # O_EXCL makes claim-and-fire atomic even across concurrent
            # workers; an existing marker means the directive is spent.
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:
            return
    if directive == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive == "hang":
        time.sleep(float(plan.get("hang_seconds", 30.0)))
    elif directive == "fail":
        raise RuntimeError(f"chaos: injected transient failure for {key}")
    elif directive == "poison":
        raise ChaosPoisonError(f"chaos: injected permanent failure for {key}")
    elif directive == "interrupt":
        raise KeyboardInterrupt(f"chaos: injected interrupt for {key}")


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


@dataclass
class ChaosRoundResult:
    """Outcome of one chaos round."""

    name: str
    converged: bool
    cells: int = 0
    quarantined: int = 0
    detail: str = ""


@dataclass
class ChaosCampaignResult:
    """All rounds of one chaos campaign."""

    rounds: List[ChaosRoundResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rounds) and all(r.converged for r in self.rounds)

    def report(self) -> str:
        lines = [
            f"chaos campaign: {len(self.rounds)} round(s), "
            f"{'CONVERGED' if self.ok else 'DIVERGED'}"
        ]
        for round_result in self.rounds:
            status = "converged" if round_result.converged else "DIVERGED"
            line = (
                f"  {round_result.name}: {status} "
                f"({round_result.cells} cell(s)"
            )
            if round_result.quarantined:
                line += f", {round_result.quarantined} quarantined"
            line += ")"
            lines.append(line)
            if round_result.detail:
                for detail_line in round_result.detail.splitlines():
                    lines.append(f"      {detail_line}")
        return "\n".join(lines)


def chaos_cells(
    workloads: Sequence[str] = ("QE", "HM"),
    schemes: Sequence[Scheme] = (BASELINE, Scheme.ATOM, Scheme.PROTEUS),
    threads: int = 1,
    seed: int = 3,
    init_ops: int = 200,
    sim_ops: int = 6,
) -> Dict[str, CellSpec]:
    """The tiny cell matrix a chaos round disturbs, keyed by plan key."""
    config = fast_nvm_config(cores=threads)
    cells = {}
    for workload in workloads:
        for scheme in schemes:
            spec = CellSpec(
                workload=workload,
                scheme=scheme,
                config=config,
                threads=threads,
                seed=seed,
                init_ops=init_ops,
                sim_ops=sim_ops,
            )
            cells[chaos_cell_key(spec.to_dict())] = spec
    return cells


@dataclass(frozen=True)
class ChaosSettings:
    """Knobs for an in-process chaos campaign."""

    rounds: int = 2
    seed: int = 0
    jobs: int = 2
    cell_timeout: float = 5.0
    hang_seconds: float = 60.0
    max_retries: int = 3


def _set_plan_env(plan_path: Path) -> None:
    os.environ[CHAOS_PLAN_ENV] = str(plan_path)


def _clear_plan_env() -> None:
    os.environ.pop(CHAOS_PLAN_ENV, None)


def _resilience(settings: ChaosSettings) -> ResilienceConfig:
    # Tight backoff: chaos rounds inject failures on purpose and the
    # retries should not dominate wall time.
    return ResilienceConfig(
        cell_timeout=settings.cell_timeout,
        max_retries=settings.max_retries,
        backoff_base=0.01,
        backoff_max=0.05,
    )


def run_chaos_round(
    index: int,
    cells: Mapping[str, CellSpec],
    reference: Mapping[str, bytes],
    settings: ChaosSettings,
    round_dir: Path,
) -> ChaosRoundResult:
    """One seeded disturbance/recovery cycle over ``cells``.

    Phase 1 runs a subset of the cells under an active chaos plan
    (worker kills, hangs, transient failures, a poison cell).  Phase 2
    damages the artifacts on disk (torn journal tail, corrupted and
    deleted cache entries; odd rounds also point the resumed cache at an
    unwritable path to exercise ENOSPC-style degradation).  Phase 3
    resumes the full matrix from the damaged journal, then resumes once
    more to prove the second resume executes nothing.  Convergence means
    every non-poisoned cell byte-matches the undisturbed serial
    reference and every poisoned cell is quarantined.
    """
    rng = random.Random(f"chaos:{settings.seed}:{index}")
    keys = sorted(cells)
    round_dir.mkdir(parents=True, exist_ok=True)
    journal_path = round_dir / "journal.jsonl"
    cache_dir = round_dir / "cache"
    problems: List[str] = []

    directives: Dict[str, str] = {}
    directives[rng.choice(keys)] = "kill"
    directives[rng.choice(keys)] = "fail"
    directives[rng.choice(keys)] = "hang"
    poison_key: Optional[str] = None
    if rng.random() < 0.75:
        poison_key = rng.choice(keys)
        directives[poison_key] = "poison"
        if directives.get(poison_key) != "poison":  # pragma: no cover
            poison_key = None
    plan_path = write_chaos_plan(
        round_dir / "plan.json",
        directives,
        round_dir / "markers",
        hang_seconds=settings.hang_seconds,
    )

    shuffled = keys[:]
    rng.shuffle(shuffled)
    subset = shuffled[: max(1, (2 * len(shuffled)) // 3)]

    _set_plan_env(plan_path)
    try:
        # Phase 1: interrupted journaled run over a subset, chaos active.
        with SweepJournal(journal_path, label=f"chaos-round-{index}") as journal:
            runner = _make_runner(settings, cache_dir, journal)
            runner.run_cells([cells[key] for key in subset])

        # Phase 2: damage the artifacts the resume depends on.
        _tear_journal_tail(journal_path, rng)
        _damage_cache(cache_dir, rng)
        resume_cache: "Path | None" = cache_dir
        if index % 2 == 1:
            # ENOSPC/read-only stand-in: a *file* where the cache
            # directory should be makes every store fail (works even
            # when running as root, unlike permission bits).
            blocker = round_dir / "blocked"
            blocker.write_text("cache dir is unwritable this round")
            resume_cache = blocker / "cache"

        # Phase 3: resume the full matrix from the damaged journal.
        with SweepJournal(journal_path, label=f"chaos-round-{index}") as journal:
            resumed = _make_runner(settings, resume_cache, journal)
            results = resumed.run_cells([cells[key] for key in keys])

        # Resume-after-resume: nothing left to execute.
        with SweepJournal(journal_path, label=f"chaos-round-{index}") as journal:
            again = _make_runner(settings, None, journal)
            second = again.run_cells([cells[key] for key in keys])
            if again.simulated != 0:
                problems.append(
                    f"second resume re-simulated {again.simulated} cell(s)"
                )
    finally:
        _clear_plan_env()

    quarantined_keys = {record.key for record in resumed.quarantined}
    for key, result, rerun in zip(keys, results, second):
        digest = cells[key].digest(code_version=journal.code_version)
        if key == poison_key:
            if result is not None:
                problems.append(f"poisoned cell {key} produced a result")
            if digest not in quarantined_keys and not journal.is_quarantined(
                digest
            ):
                problems.append(f"poisoned cell {key} was not quarantined")
            continue
        if result is None:
            problems.append(f"cell {key} missing from resumed results")
            continue
        if result_bytes(result) != reference[key]:
            problems.append(f"cell {key} diverged from the serial reference")
        if rerun is None or result_bytes(rerun) != reference[key]:
            problems.append(f"cell {key} diverged on the second resume")

    return ChaosRoundResult(
        name=f"round {index}"
        + (" (unwritable cache)" if index % 2 == 1 else ""),
        converged=not problems,
        cells=len(keys),
        quarantined=len(quarantined_keys),
        detail="\n".join(problems),
    )


def _make_runner(
    settings: ChaosSettings,
    cache_dir: "Path | None",
    journal: SweepJournal,
) -> "Any":
    from repro.parallel.runner import SweepRunner

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return SweepRunner(
        jobs=settings.jobs,
        cache=cache,
        resilience=_resilience(settings),
        journal=journal,
    )


def _tear_journal_tail(journal_path: Path, rng: random.Random) -> None:
    """Truncate the journal mid-record, as a crash during append would."""
    try:
        size = journal_path.stat().st_size
    except OSError:
        return
    if size < 80:
        return
    cut = rng.randrange(1, 60)
    with open(journal_path, "r+b") as handle:
        handle.truncate(size - cut)


def _damage_cache(cache_dir: Path, rng: random.Random) -> None:
    """Corrupt one cache entry and delete another (when present)."""
    entries = sorted(cache_dir.glob("*/*.json"))
    if not entries:
        return
    victim = entries[rng.randrange(len(entries))]
    try:
        victim.write_bytes(b'{"schema": "garbage", "truncat')
    except OSError:
        pass
    if len(entries) > 1:
        doomed = entries[rng.randrange(len(entries))]
        try:
            doomed.unlink()
        except OSError:
            pass


def run_chaos_campaign(
    rounds: int = 2,
    seed: int = 0,
    jobs: int = 2,
    cell_timeout: float = 5.0,
    work_dir: "Path | str | None" = None,
    keep: bool = False,
    driver_kill: bool = False,
    scale: float = 0.05,
    cells: Optional[Mapping[str, CellSpec]] = None,
) -> ChaosCampaignResult:
    """Run a full chaos campaign and report convergence.

    Computes the undisturbed serial reference once, then runs ``rounds``
    seeded disturbance cycles (see :func:`run_chaos_round`).  With
    ``driver_kill`` an additional round SIGKILLs the *driver* process of
    a real ``python -m repro experiment fig6`` sweep after every few
    journal appends and resumes it until completion.
    """
    from repro.parallel.runner import SweepRunner

    base = Path(work_dir) if work_dir is not None else None
    created = None
    if base is None:
        created = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        base = created
    base.mkdir(parents=True, exist_ok=True)

    campaign = ChaosCampaignResult()
    try:
        matrix = dict(cells) if cells is not None else chaos_cells()
        serial = SweepRunner(jobs=1)
        ordered = sorted(matrix)
        reference = {
            key: result_bytes(result)
            for key, result in zip(
                ordered, serial.run_cells([matrix[key] for key in ordered])
            )
            if result is not None
        }
        settings = ChaosSettings(
            rounds=rounds, seed=seed, jobs=jobs, cell_timeout=cell_timeout
        )
        for index in range(rounds):
            campaign.rounds.append(
                run_chaos_round(
                    index, matrix, reference, settings, base / f"round-{index}"
                )
            )
        if driver_kill:
            campaign.rounds.append(
                run_driver_kill_round(
                    base / "driver-kill", scale=scale, jobs=jobs, seed=seed
                )
            )
    finally:
        if created is not None and not keep:
            shutil.rmtree(created, ignore_errors=True)
    return campaign


# ---------------------------------------------------------------------------
# driver-kill round: SIGKILL the real CLI mid-sweep, resume until done
# ---------------------------------------------------------------------------


def _cli_env(extra: Mapping[str, str]) -> Dict[str, str]:
    """Subprocess environment that can import ``repro`` and shares keys."""
    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    env.update(extra)
    return env


def run_driver_kill_round(
    round_dir: Path,
    scale: float = 0.05,
    jobs: int = 2,
    seed: int = 7,
    threads: int = 1,
    kill_after: int = 3,
    max_launches: int = 60,
) -> ChaosRoundResult:
    """Kill the sweep *driver* repeatedly; resume until fig6 completes.

    Each launch runs the real CLI with ``REPRO_CHAOS_KILL_AFTER`` so the
    driver SIGKILLs itself after ``kill_after`` journal done-appends.
    The round converges when (a) every killed launch died with SIGKILL,
    (b) the journal's done-count grew strictly across launches, (c) the
    final resume only executed the leftover cells, and (d) every
    recorded payload byte-matches an in-process serial run of the same
    cells.
    """
    from repro.analysis.experiments import evaluation_cells
    from repro.parallel.runner import SweepRunner

    round_dir.mkdir(parents=True, exist_ok=True)
    journal_path = round_dir / "journal.jsonl"
    cache_dir = round_dir / "cache"
    code_version = repo_code_version()
    problems: List[str] = []

    command = [
        sys.executable,
        "-m",
        "repro",
        "experiment",
        "fig6",
        "--threads",
        str(threads),
        "--scale",
        str(scale),
        "--seed",
        str(seed),
        "--jobs",
        str(jobs),
        "--cache-dir",
        str(cache_dir),
        "--journal",
        str(journal_path),
        "--resume",
    ]

    matrix = evaluation_cells(
        fast_nvm_config(cores=threads),
        schemes=FIGURE_ORDER,
        threads=threads,
        scale=scale,
        seed=seed,
    )
    total = len(matrix)

    done_before = 0
    launches = 0
    kills = 0
    completed = False
    while launches < max_launches:
        launches += 1
        proc = subprocess.run(
            command,
            env=_cli_env(
                {
                    KILL_AFTER_ENV: str(kill_after),
                    "REPRO_CODE_VERSION": code_version,
                }
            ),
            capture_output=True,
            text=True,
        )
        with SweepJournal(journal_path, code_version=code_version) as journal:
            done_now = journal.counts()["done"]
        if proc.returncode == 0:
            completed = True
            break
        kills += 1
        if proc.returncode != -signal.SIGKILL:
            problems.append(
                f"launch {launches} exited {proc.returncode}, expected "
                f"SIGKILL; stderr: {proc.stderr.strip()[-300:]}"
            )
            break
        if done_now <= done_before:
            problems.append(
                f"launch {launches} made no progress "
                f"({done_before} -> {done_now} done)"
            )
            break
        done_before = done_now

    if not completed and not problems:
        problems.append(f"sweep did not complete within {max_launches} launches")

    if not problems:
        if kills == 0:
            problems.append(
                "driver was never killed (kill_after too high for this sweep?)"
            )
        # Final resume from a fully-done journal must execute nothing:
        # the CLI prints the runner description; check "0 simulated".
        proc = subprocess.run(
            command,
            env=_cli_env({"REPRO_CODE_VERSION": code_version}),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            problems.append(
                f"post-completion resume exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"
            )
        elif "0 simulated" not in proc.stdout:
            problems.append("post-completion resume re-simulated cells")

    if not problems:
        serial = SweepRunner(jobs=1)
        ordered = sorted(matrix, key=lambda key: (key[0], key[1].value))
        serial_results = serial.run_cells([matrix[key] for key in ordered])
        with SweepJournal(journal_path, code_version=code_version) as journal:
            for key, result in zip(ordered, serial_results):
                digest = matrix[key].digest(code_version=code_version)
                payload = journal.done_payload(digest)
                if payload is None:
                    problems.append(f"cell {key} missing from journal")
                elif result is None or canonical_json(
                    payload
                ) != canonical_json(result_to_payload(result)):
                    problems.append(
                        f"cell {key} journal payload diverged from serial run"
                    )

    return ChaosRoundResult(
        name=f"driver-kill (fig6, scale {scale:g}, killed {kills}x "
        f"in {launches} launch(es))",
        converged=not problems,
        cells=total,
        detail="\n".join(problems),
    )
