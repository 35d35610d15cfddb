"""Sweep execution: fan cells out over processes, backed by the cache.

:class:`SweepRunner` is the one chokepoint through which every
figure/table experiment, ablation, and profiling sweep runs its
simulations.  For each batch of :class:`~repro.parallel.cellspec.CellSpec`
it consults, in order:

1. the **in-process memo** — repeated requests for the same cell inside
   one process return the same :class:`~repro.sim.simulator.SimResult`
   object (figures 6/7/8 share one sweep this way, exactly as the old
   per-module dict cache did);
2. the **on-disk content-addressed cache** (when attached) — unchanged
   cells load instead of re-simulating;
3. **simulation** — through :func:`~repro.parallel.resilience.run_resilient`,
   the one executor every sweep shares: inline when ``jobs == 1``, else
   fanned out over its process pool.  Either way the cell's result
   crosses back as its canonical payload.

Every cell is self-contained (workload regenerated from its seed inside
the executing process, fresh ``Stats``/engine/machine per run, the
shared ``NULL_TRACER`` never rebound), so results are independent of
batch order, of ``jobs``, and of which cells happen to share a batch —
``tests/test_parallel_runner.py`` shuffles cell order and compares
byte-for-byte.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.trace import OpTrace
from repro.parallel.cache import ResultCache, default_cache_dir
from repro.parallel.cellspec import (
    CellSpec,
    SWEEP_WORKLOADS,
    canonical_json,
    payload_to_result,
    result_to_payload,
)
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    last_run_report,
    run_resilient,
)
from repro.sim.simulator import SimResult, run_trace
from repro.workloads.base import generate_traces

#: Per-process memo of generated traces keyed by the trace-identity part
#: of a spec.  Traces are pure functions of this key and are treated as
#: immutable by the simulator (the shuffled-order determinism test holds
#: that line), so sharing them across cells is safe.
_trace_memo: Dict[str, List[OpTrace]] = {}


def generate_traces_cached(
    workload: str,
    threads: int,
    seed: int,
    init_ops: int,
    sim_ops: int,
    workload_kwargs: Tuple[Tuple[str, Any], ...] = (),
) -> List[OpTrace]:
    """Per-process cached trace generation for one trace identity.

    Scheme comparisons deliberately share one trace object per identity
    so every scheme runs identical work (and trace generation is paid
    once per process, not once per cell).
    """
    key = canonical_json(
        [workload, threads, seed, init_ops, sim_ops,
         [list(pair) for pair in workload_kwargs]]
    )
    if key not in _trace_memo:
        _trace_memo[key] = generate_traces(
            SWEEP_WORKLOADS[workload],
            threads=threads,
            seed=seed,
            init_ops=init_ops,
            sim_ops=sim_ops,
            **dict(workload_kwargs),
        )
    return _trace_memo[key]


def traces_for(spec: CellSpec) -> List[OpTrace]:
    """Per-process cached trace generation for a cell."""
    return generate_traces_cached(
        spec.workload, spec.threads, spec.seed, spec.init_ops, spec.sim_ops,
        spec.workload_kwargs,
    )


def execute_cell(spec: CellSpec) -> SimResult:
    """Simulate one cell in this process (fresh machine, cached traces)."""
    return run_trace(
        traces_for(spec), spec.scheme, spec.config, max_cycles=spec.max_cycles
    )


def _simulate_cell_payload(spec_data: Dict[str, Any]) -> Dict[str, Any]:
    """Task entry point: run one cell, return its canonical payload.

    In a pool process the spec dict crosses the pipe in and the plain
    result payload crosses back out — no live simulator objects are ever
    pickled, and each cell gets a process-fresh engine/stats/tracer.
    Inline runs take the same route, so every result is rebuilt alike.
    """
    if os.environ.get("REPRO_CHAOS_PLAN"):
        # Chaos harness hook (no-op unless a plan is exported): lets the
        # chaos campaign kill/hang/fail this worker for selected cells.
        from repro.parallel.chaos import apply_chaos_directive

        apply_chaos_directive(spec_data)
    spec = CellSpec.from_dict(spec_data)
    return result_to_payload(execute_cell(spec))


def _checked_payload(payload: Any) -> Dict[str, Any]:
    """Journal-payload decoder: validate a recorded result payload.

    Raises ``ValueError``/``KeyError``/``TypeError`` on a damaged
    payload (the executor then re-runs the cell).
    """
    payload_to_result(payload)
    return dict(payload)


def default_jobs() -> int:
    """Job count from the ``REPRO_JOBS`` environment variable (default 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


class SweepRunner:
    """Execute batches of sweep cells with memoization and caching.

    Cells run through :func:`~repro.parallel.resilience.run_resilient`.
    With neither a :class:`ResilienceConfig` nor a
    :class:`~repro.parallel.journal.SweepJournal` attached, the first
    failing cell fails the batch.  With either one the batch heals:
    per-cell timeouts, retries with backoff, worker-crash recovery, and
    poison-cell quarantine; quarantined cells come back as ``None`` in
    :meth:`run_cells` (and are listed in :attr:`quarantined`).  A
    journal also records every cell's lifecycle write-ahead and serves
    finished cells on resume — independently of the result cache
    surviving.  :attr:`simulated` counts cells that finished simulating.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        resilience: Optional[ResilienceConfig] = None,
        journal: Optional[SweepJournal] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.resilience = resilience
        self.journal = journal
        self._memo: Dict[str, SimResult] = {}
        self.simulated = 0
        self.memo_hits = 0
        self.journal_hits = 0
        self.retried = 0
        self.pool_rebuilds = 0
        self.quarantined: List[QuarantineRecord] = []

    # -- batch execution ---------------------------------------------------

    def run_cells(self, specs: Sequence[CellSpec]) -> List[Optional[SimResult]]:
        """Run (or fetch) every cell; returns results aligned with ``specs``.

        Duplicate cells within a batch are executed once.  Entries are
        ``None`` only for quarantined cells (which requires a resilience
        config or journal to be attached).
        """
        keys = [canonical_json(spec.describe()) for spec in specs]
        resolved: Dict[str, Optional[SimResult]] = {}
        pending: List[Tuple[str, CellSpec]] = []
        seen_pending: Set[str] = set()
        for key, spec in zip(keys, specs):
            if key in self._memo:
                self.memo_hits += 1
                resolved[key] = self._memo[key]
                continue
            if key in resolved or key in seen_pending:
                continue
            if self.cache is not None and self.journal is None:
                cached = self.cache.load(spec)
                if cached is not None:
                    resolved[key] = cached
                    continue
            seen_pending.add(key)
            pending.append((key, spec))

        for key, spec, result in self._execute(pending):
            if result is not None and self.cache is not None:
                self.cache.store(spec, result)
            resolved[key] = result

        for key in resolved:
            result = resolved[key]
            if result is not None:
                self._memo.setdefault(key, result)
        return [
            self._memo[key] if key in self._memo else resolved[key]
            for key in keys
        ]

    def run_one(self, spec: CellSpec) -> SimResult:
        """Run (or fetch) a single cell; raises if it was quarantined."""
        result = self.run_cells([spec])[0]
        if result is None:
            raise RuntimeError(
                f"cell {spec.workload}/{spec.scheme.value} is quarantined "
                f"(see runner.quarantined for the recorded error)"
            )
        return result

    # -- internals ---------------------------------------------------------

    def _execute(
        self, pending: Sequence[Tuple[str, CellSpec]]
    ) -> List[Tuple[str, CellSpec, Optional[SimResult]]]:
        """Run pending cells through the sweep executor."""
        if not pending:
            return []
        journal = self.journal
        code_version = (
            journal.code_version
            if journal is not None
            else (self.cache.code_version if self.cache is not None else None)
        )
        digests = {
            key: spec.digest(code_version=code_version) for key, spec in pending
        }
        backfilled: Set[str] = set()
        if journal is not None:
            journal.begin(
                (digests[key], spec.describe()) for key, spec in pending
            )
            # Cache pre-pass: a cache hit becomes a journal done-record,
            # so from here on the journal alone carries the sweep state.
            if self.cache is not None:
                for key, spec in pending:
                    digest = digests[key]
                    if journal.status(digest) in ("done", "quarantined"):
                        continue
                    cached = self.cache.load(spec)
                    if cached is not None:
                        journal.mark_done(digest, result_to_payload(cached))
                        backfilled.add(digest)

        outcomes = run_resilient(
            _simulate_cell_payload,
            [(digests[key], spec.to_dict()) for key, spec in pending],
            jobs=self.jobs,
            config=self.resilience,
            journal=journal,
            decode=_checked_payload,
            descriptions={
                digests[key]: spec.describe() for key, spec in pending
            },
        )
        report = last_run_report()
        self.retried += report.retried
        self.pool_rebuilds += report.pool_rebuilds
        known = {record.key for record in self.quarantined}
        self.quarantined.extend(
            record for record in report.quarantined if record.key not in known
        )

        results: List[Tuple[str, CellSpec, Optional[SimResult]]] = []
        for key, spec in pending:
            outcome = outcomes[digests[key]]
            if outcome.status != "done":
                results.append((key, spec, None))
                continue
            if outcome.from_journal:
                if digests[key] not in backfilled:
                    self.journal_hits += 1
            else:
                self.simulated += 1
            results.append((key, spec, payload_to_result(outcome.value)))
        return results

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        parts = [
            f"runner jobs={self.jobs}: {self.simulated} simulated, "
            f"{self.memo_hits} memo hit(s)"
        ]
        if self.journal_hits:
            parts[0] += f", {self.journal_hits} journal hit(s)"
        if self.retried:
            parts[0] += f", {self.retried} retried"
        if self.pool_rebuilds:
            parts[0] += f", {self.pool_rebuilds} pool rebuild(s)"
        if self.quarantined:
            parts[0] += f", {len(self.quarantined)} quarantined"
        if self.resilience is not None:
            parts.append(f"resilience: {self.resilience.describe()}")
        if self.journal is not None:
            parts.append(self.journal.describe())
        if self.cache is not None:
            parts.append(self.cache.describe())
        return "; ".join(parts)

    def quarantine_notes(self) -> List[str]:
        """Human-readable lines describing quarantined cells (may be [])."""
        return [record.summary() for record in self.quarantined]


# ---------------------------------------------------------------------------
# default runner (library-level entry point)
# ---------------------------------------------------------------------------

_default_runner: Optional[SweepRunner] = None


def get_default_runner() -> SweepRunner:
    """The process-wide runner used when an experiment is given none.

    Built lazily from the environment: ``REPRO_JOBS`` sets the job
    count; the on-disk cache attaches only when ``REPRO_CACHE_DIR`` is
    set or ``REPRO_CACHE=1`` — library/test use stays disk-free unless
    opted in, while the CLI attaches a cache explicitly.
    """
    global _default_runner
    if _default_runner is None:
        cache: Optional[ResultCache] = None
        if os.environ.get("REPRO_CACHE_DIR") or os.environ.get("REPRO_CACHE") == "1":
            cache = ResultCache(default_cache_dir())
        _default_runner = SweepRunner(jobs=default_jobs(), cache=cache)
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> Optional[SweepRunner]:
    """Install (or, with ``None``, reset) the process-wide runner.

    Returns the previous runner so callers can restore it.
    """
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous


def configure_default_runner(
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    journal: Optional[SweepJournal] = None,
    cell_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> SweepRunner:
    """Build and install a runner from CLI-style options.

    The CLI default is cache *on* (at :func:`default_cache_dir`);
    ``no_cache`` turns it off, ``cache_dir`` relocates it.  Passing a
    journal or any resilience knob makes the runner heal (retries,
    timeouts, quarantine, crash recovery) instead of failing fast.
    """
    cache = None if no_cache else ResultCache(cache_dir or default_cache_dir())
    runner = SweepRunner(
        jobs=default_jobs() if jobs is None else jobs,
        cache=cache,
        resilience=ResilienceConfig.from_options(cell_timeout, max_retries),
        journal=journal,
    )
    set_default_runner(runner)
    return runner
