"""The sweep executor: one process pool that fails fast or heals.

:func:`run_resilient` runs every batch of keyed tasks the repo fans out:
:class:`~repro.parallel.runner.SweepRunner` cells and the lint, verify
and profile sweeps.  Tasks run inline at ``jobs == 1`` without a cell
timeout, and otherwise over a ``ProcessPoolExecutor`` of
``min(jobs, tasks)`` workers.  Which way a failure ends is decided once,
from the inputs:

* with neither a :class:`ResilienceConfig` nor a journal the batch
  **fails fast**: each task runs once, and the first failure (a worker
  crash included) raises :class:`SweepExecutionError` chained from the
  task's exception;
* with either one the batch **heals**, surviving each failure below.

* a **crashed worker** (segfault, OOM-kill, SIGKILL) breaks the pool and
  poisons every in-flight future — the pool is rebuilt and the in-flight
  tasks are requeued.  The broken pool cannot say *which* task killed
  the worker, so no task is charged a retry for a pool break; a bounded
  per-task involvement count prevents a reliably-crashing task from
  livelocking the sweep (it is quarantined once it has been present in
  more pool breaks than its whole retry budget could explain).
* a **stuck worker** trips the per-task wall-clock timeout: the pool's
  processes are killed, the pool is rebuilt, the overdue task is charged
  one attempt, and innocent in-flight tasks are requeued for free.
  Submission is windowed (at most ``jobs`` tasks in flight) so the
  submit timestamp the deadline is computed from is also, to within a
  scheduling quantum, the start timestamp.
* a **failing task** (any ``Exception``) is retried up to
  ``max_retries`` times with deterministic jittered exponential backoff,
  then **quarantined**: recorded in the journal with its traceback,
  reported, and never re-run — the rest of the sweep completes.

In both modes **KeyboardInterrupt**, in the driver or raised by a task in
a worker, cancels queued futures, kills the pool's processes, and
re-raises promptly instead of waiting out in-flight tasks; it is never
retried.

When a :class:`~repro.parallel.journal.SweepJournal` is attached, every
state transition is journaled write-ahead, finished tasks are served
from the journal on resume, and journal-quarantined tasks stay
quarantined.

Backoff jitter is *seeded by task key and attempt number* — no global
RNG draw — so a resumed sweep backs off identically and the repo's RNG
discipline (every stream owns a named seed) extends to the execution
layer.
"""

from __future__ import annotations

import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.parallel.journal import SweepJournal

#: A task's lifetime can involve at most this many pool breaks beyond
#: its retry budget before it is quarantined as the likely culprit.
POOL_BREAK_SLACK = 2

#: Each retry's backoff is this many times the previous one's (before
#: the ``backoff_max`` cap and the jitter).
BACKOFF_FACTOR = 2.0

#: A backoff is stretched by a seeded draw of up to this fraction.
BACKOFF_JITTER = 0.5


def pool_worker_init() -> None:
    """Tie pool workers to their driver's life (Linux: PDEATHSIG).

    A driver that dies by SIGKILL cannot shut its pool down; without
    this, orphaned workers linger, holding inherited pipes open (which
    blocks anything capturing the driver's output) and burning CPU on
    results nobody will read.  Best-effort and silently a no-op where
    ``prctl`` is unavailable.
    """
    try:
        import ctypes
        import signal as _signal

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, _signal.SIGKILL)
    except Exception:  # pragma: no cover - non-Linux fallback
        pass


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the self-healing execution loop.

    ``max_retries`` counts *re*-executions: a task runs at most
    ``max_retries + 1`` times before quarantine.  ``cell_timeout`` is the
    per-attempt wall-clock budget in seconds (``None`` disables timeout
    enforcement and lets ``jobs == 1`` batches run inline).
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    @classmethod
    def from_options(
        cls, cell_timeout: Optional[float], max_retries: Optional[int]
    ) -> Optional["ResilienceConfig"]:
        """The config ``--cell-timeout``/``--max-retries`` ask for.

        ``None`` when neither option is given: the batch then fails fast
        unless a journal is attached, which heals with the defaults.
        """
        if cell_timeout is None and max_retries is None:
            return None
        if max_retries is None:
            return cls(cell_timeout=cell_timeout)
        return cls(cell_timeout=cell_timeout, max_retries=max_retries)

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministic jittered delay before retry ``attempt + 1``."""
        delay = min(
            self.backoff_max,
            self.backoff_base * BACKOFF_FACTOR ** max(0, attempt - 1),
        )
        rng = random.Random(f"backoff:{key}:{attempt}")
        return delay * (1.0 + BACKOFF_JITTER * rng.random())

    def describe(self) -> str:
        timeout = (
            f"{self.cell_timeout:g}s" if self.cell_timeout is not None else "off"
        )
        return f"timeout={timeout}, retries={self.max_retries}"


@dataclass
class QuarantineRecord:
    """A task that exhausted its retry budget."""

    key: str
    attempts: int
    error: str
    description: Optional[Dict[str, Any]] = None

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"{self.key}: {last_line} (after {self.attempts} attempt(s))"


def partial_results_lines(
    records: Sequence[QuarantineRecord], indent: str = "  "
) -> List[str]:
    """A sweep report's footer listing its quarantined tasks, if any."""
    if not records:
        return []
    return [f"{indent}PARTIAL RESULTS — quarantined cells omitted:"] + [
        f"{indent}  {record.summary()}" for record in records
    ]


@dataclass
class CellOutcome:
    """Terminal state of one task after a resilient run."""

    key: str
    status: str  # "done" | "quarantined"
    value: Any = None
    attempts: int = 0
    error: Optional[str] = None
    from_journal: bool = False


class SweepExecutionError(RuntimeError):
    """A task failed in a batch that fails fast (no config, no journal).

    Raised from the task's exception, so ``__cause__`` holds it; the
    message carries its traceback text.
    """

    def __init__(self, record: QuarantineRecord) -> None:
        super().__init__(
            f"task {record.key} failed {record.attempts} attempt(s); "
            f"last error:\n{record.error}"
        )
        self.record = record


@dataclass(eq=False)  # identity semantics: tasks live in sets and dicts
class _Task:
    key: str
    item: Any
    description: Optional[Dict[str, Any]] = None
    attempts: int = 0
    pool_breaks: int = 0
    ready_at: float = 0.0
    last_error: str = ""


class _Loop:
    """One batch execution: terminal transitions and the pool loop."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        config: ResilienceConfig,
        heal: bool,
        journal: Optional[SweepJournal],
        encode: Callable[[Any], Mapping[str, Any]],
    ) -> None:
        self.fn = fn
        self.config = config
        self.heal = heal
        self.journal = journal
        self.encode = encode
        self.queue: List[_Task] = []
        self.outcomes: Dict[str, CellOutcome] = {}
        self.quarantined: List[QuarantineRecord] = []
        self.retried = 0
        self.pool_rebuilds = 0

    # -- pool management ---------------------------------------------------

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=pool_worker_init
        )

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forcibly stop a pool (stuck or broken workers included)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # already dead / closed
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- terminal transitions ----------------------------------------------

    def _finish(self, task: _Task, value: Any) -> None:
        if self.journal is not None:
            self.journal.mark_done(task.key, dict(self.encode(value)))
        self.outcomes[task.key] = CellOutcome(
            key=task.key, status="done", value=value, attempts=task.attempts
        )

    def _record(self, task: _Task) -> QuarantineRecord:
        return QuarantineRecord(
            key=task.key,
            attempts=task.attempts,
            error=task.last_error,
            description=task.description,
        )

    def _quarantine(self, task: _Task) -> None:
        if self.journal is not None:
            self.journal.mark_quarantined(task.key, task.attempts, task.last_error)
        self.quarantined.append(self._record(task))
        self.outcomes[task.key] = CellOutcome(
            key=task.key,
            status="quarantined",
            attempts=task.attempts,
            error=task.last_error,
        )

    def _record_failure(self, task: _Task, error: BaseException) -> None:
        """Charge one failed attempt: fail fast, or requeue or quarantine."""
        task.last_error = _format_error(error)
        if not self.heal:
            raise SweepExecutionError(self._record(task)) from error
        if self.journal is not None:
            self.journal.mark_failed(task.key, task.attempts, task.last_error)
        if task.attempts > self.config.max_retries:
            self._quarantine(task)
        else:
            self.retried += 1
            task.ready_at = time.monotonic() + self.config.backoff(
                task.key, task.attempts
            )
            self.queue.append(task)

    # -- main loop ---------------------------------------------------------

    def run(self, tasks: Sequence[_Task], workers: int) -> None:
        """Run ``tasks`` over a pool of ``workers`` processes."""
        self.queue = list(tasks)
        pool = self._new_pool(workers)
        inflight: Dict[Future[Any], _Task] = {}
        deadlines: Dict[Future[Any], float] = {}
        try:
            while self.queue or inflight:
                now = time.monotonic()
                # Fill the window with tasks whose backoff has elapsed.
                ready = [t for t in self.queue if t.ready_at <= now]
                while ready and len(inflight) < workers:
                    task = ready.pop(0)
                    self.queue.remove(task)
                    task.attempts += 1
                    if self.journal is not None:
                        self.journal.mark_running(task.key, task.attempts)
                    try:
                        future = pool.submit(self.fn, task.item)
                    except BrokenProcessPool as error:
                        # A worker died since the last wait: a broken future.
                        future = Future()
                        future.set_exception(error)
                    inflight[future] = task
                    if self.config.cell_timeout is not None:
                        deadlines[future] = (
                            time.monotonic() + self.config.cell_timeout
                        )
                if not inflight:
                    # Everything queued is backing off; sleep to the
                    # earliest ready time.
                    wake = min(t.ready_at for t in self.queue)
                    time.sleep(max(0.0, wake - time.monotonic()) + 0.001)
                    continue

                done, _ = wait(
                    set(inflight), timeout=0.05, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done:
                    task = inflight.pop(future)
                    deadlines.pop(future, None)
                    error = future.exception()
                    if error is None:
                        self._finish(task, future.result())
                    elif not isinstance(error, Exception):
                        # A worker's KeyboardInterrupt is the user's, not
                        # the task's: stop the batch, as inline runs do.
                        raise error
                    elif isinstance(error, BrokenProcessPool) and self.heal:
                        # A worker died; every in-flight future is (or is
                        # about to be) poisoned.  Requeue this task and
                        # fall through to the collective rebuild below.
                        self.queue.append(task)
                        task.attempts -= 1  # pool breaks are not retries
                        task.pool_breaks += 1
                        pool_broken = True
                    else:
                        self._record_failure(task, error)

                if pool_broken:
                    for future, task in list(inflight.items()):
                        task.attempts -= 1
                        task.pool_breaks += 1
                        self.queue.append(task)
                    inflight.clear()
                    deadlines.clear()
                    self._kill_pool(pool)
                    pool = self._new_pool(workers)
                    self.pool_rebuilds += 1
                    self._quarantine_livelocked()
                    continue

                if deadlines:
                    now = time.monotonic()
                    overdue = [f for f, d in deadlines.items() if now > d]
                    if overdue:
                        # Stuck worker(s): the only way to reclaim them is
                        # to kill the pool's processes and rebuild.
                        overdue_tasks = {inflight[f] for f in overdue}
                        for future, task in list(inflight.items()):
                            if task in overdue_tasks:
                                self._record_failure(
                                    task,
                                    TimeoutError(
                                        f"attempt exceeded cell timeout of "
                                        f"{self.config.cell_timeout:g}s"
                                    ),
                                )
                            else:
                                task.attempts -= 1  # innocent bystander
                                self.queue.append(task)
                        inflight.clear()
                        deadlines.clear()
                        self._kill_pool(pool)
                        pool = self._new_pool(workers)
                        self.pool_rebuilds += 1
        except BaseException:
            # A fail-fast error, KeyboardInterrupt or anything else fatal:
            # stop promptly — cancel what never started, kill what is
            # running, re-raise.
            self._kill_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)

    def _quarantine_livelocked(self) -> None:
        """Quarantine tasks implicated in too many pool breaks."""
        bound = self.config.max_retries + 1 + POOL_BREAK_SLACK
        for task in [t for t in self.queue if t.pool_breaks >= bound]:
            self.queue.remove(task)
            task.attempts = max(task.attempts, 1)
            task.last_error = (
                f"BrokenProcessPool: task was in flight for "
                f"{task.pool_breaks} worker crashes (budget {bound}); "
                f"quarantined as the likely culprit"
            )
            self._quarantine(task)


def _format_error(error: BaseException) -> str:
    """Full traceback text (includes the remote traceback for pool tasks)."""
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _identity_encode(value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise TypeError(
            f"journaled task returned {type(value).__name__}, not a mapping; "
            f"pass encode=/decode= codecs"
        )
    return value


def run_resilient(
    fn: Callable[[Any], Any],
    tasks: Sequence[Tuple[str, Any]],
    jobs: int = 1,
    config: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
    encode: Optional[Callable[[Any], Mapping[str, Any]]] = None,
    decode: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    descriptions: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, CellOutcome]:
    """Execute keyed tasks; fail fast, or heal with retries and a journal.

    ``tasks`` is a sequence of ``(key, item)`` pairs; ``fn(item)`` runs
    inline at ``jobs <= 1`` without a cell timeout, else in a worker
    process (so it must be a module-level picklable callable).  With
    neither ``config`` nor ``journal``, each task runs once and the first
    failure raises :class:`SweepExecutionError`; with either one, failed
    tasks are retried and then quarantined (``config`` defaults to
    ``ResilienceConfig()``).  ``encode``/``decode`` convert a result
    to/from the JSON payload the journal records (identity for plain-dict
    results).  Returns one :class:`CellOutcome` per distinct key.
    """
    heal = config is not None or journal is not None
    config = config if config is not None else ResilienceConfig()
    encode = encode if encode is not None else _identity_encode
    decode = decode if decode is not None else (lambda payload: dict(payload))
    descriptions = descriptions or {}

    unique: Dict[str, _Task] = {}
    for key, item in tasks:
        if key not in unique:
            desc = descriptions.get(key)
            unique[key] = _Task(
                key=key,
                item=item,
                description=dict(desc) if desc is not None else None,
            )

    loop = _Loop(fn, config, heal, journal, encode)

    runnable: List[_Task] = []
    if journal is not None:
        journal.begin(
            (key, task.description) for key, task in unique.items()
        )
    for key, task in unique.items():
        entry = journal.entry(key) if journal is not None else None
        if entry is not None and entry.status == "done":
            payload = entry.payload
            try:
                if payload is None:
                    raise ValueError("done record has no payload")
                value = decode(payload)
            except (ValueError, KeyError, TypeError):
                # Damaged recorded payload: determinism makes a re-run
                # safe, and the fresh done-record supersedes on replay.
                runnable.append(task)
                continue
            loop.outcomes[key] = CellOutcome(
                key=key,
                status="done",
                value=value,
                attempts=entry.attempts,
                from_journal=True,
            )
        elif entry is not None and entry.status == "quarantined":
            loop.quarantined.append(
                QuarantineRecord(
                    key=key,
                    attempts=entry.attempts,
                    error=entry.error or "",
                    description=task.description,
                )
            )
            loop.outcomes[key] = CellOutcome(
                key=key,
                status="quarantined",
                attempts=entry.attempts,
                error=entry.error,
                from_journal=True,
            )
        else:
            runnable.append(task)

    if runnable:
        if jobs <= 1 and config.cell_timeout is None:
            _run_inline(loop, runnable)
        else:
            loop.run(runnable, workers=min(max(1, jobs), len(runnable)))

    global _last_report
    _last_report = RunReport(
        quarantined=loop.quarantined,
        retried=loop.retried,
        pool_rebuilds=loop.pool_rebuilds,
    )
    return {key: loop.outcomes[key] for key in unique}


@dataclass
class RunReport:
    """Counters from the most recent :func:`run_resilient` call."""

    quarantined: List[QuarantineRecord] = field(default_factory=list)
    retried: int = 0
    pool_rebuilds: int = 0


_last_report = RunReport()


def last_run_report() -> RunReport:
    """Report of the most recent :func:`run_resilient` in this process."""
    return _last_report


def _run_inline(loop: _Loop, tasks: Sequence[_Task]) -> None:
    """Run tasks in this process: same failure semantics, no pool."""
    queue = list(tasks)
    while queue:
        task = queue.pop(0)
        task.attempts += 1
        if loop.journal is not None:
            loop.journal.mark_running(task.key, task.attempts)
        try:
            value = loop.fn(task.item)
        except Exception as error:
            loop._record_failure(task, error)
            if loop.queue:
                requeued = loop.queue.pop()
                delay = requeued.ready_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                queue.append(requeued)
        else:
            loop._finish(task, value)


def resilient_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    keys: Sequence[str],
    jobs: int = 1,
    config: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
    encode: Optional[Callable[[Any], Mapping[str, Any]]] = None,
    decode: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    descriptions: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Tuple[List[Any], List[QuarantineRecord]]:
    """Order-preserving resilient map.

    Returns ``(values, quarantined)`` where ``values`` aligns with
    ``items`` and quarantined positions hold ``None``.
    """
    if len(items) != len(keys):
        raise ValueError(f"{len(items)} items but {len(keys)} keys")
    outcomes = run_resilient(
        fn,
        list(zip(keys, items)),
        jobs=jobs,
        config=config,
        journal=journal,
        encode=encode,
        decode=decode,
        descriptions=descriptions,
    )
    values = [
        outcomes[key].value if outcomes[key].status == "done" else None
        for key in keys
    ]
    return values, last_run_report().quarantined
