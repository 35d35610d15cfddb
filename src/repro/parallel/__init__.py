"""Parallel sweep execution with content-addressed result caching.

The repo's scaling layer: every evaluation sweep enumerates its cells as
picklable :class:`CellSpec` records and hands them to a
:class:`SweepRunner`, which backs them with an on-disk
:class:`ResultCache` keyed by a stable content hash of (machine
configuration, scheme, workload trace identity, code version).
Unchanged cells load instead of re-simulating; results are
byte-identical either way.  See ``docs/architecture.md`` ("Parallel
sweep runner") for the design and determinism guarantees.

:func:`run_resilient` is the one executor: runner cells and the lint,
verify and profile sweeps all run through it, inline at ``jobs=1`` and
over its process pool otherwise.  Without a :class:`ResilienceConfig` or
a journal it fails fast on the first failing task.  Crash safety rides
on three further pieces (``docs/resilience.md``): the write-ahead
:class:`SweepJournal` makes any campaign resumable after a kill at any
instant, :func:`run_resilient` given a config or journal heals
crashed/stuck workers and quarantines poison cells instead of aborting,
and :mod:`repro.parallel.chaos` is the seeded fault-injection harness
that proves both under deliberately hostile conditions.
"""

from repro.parallel.cache import DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from repro.parallel.cellspec import (
    CACHE_SCHEMA_VERSION,
    CellSpec,
    SWEEP_WORKLOADS,
    canonical_json,
    config_from_dict,
    config_to_dict,
    payload_to_result,
    repo_code_version,
    result_bytes,
    result_to_payload,
)
from repro.parallel.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalEntry,
    JournalError,
    JournalVersionError,
    SweepJournal,
)
from repro.parallel.resilience import (
    CellOutcome,
    QuarantineRecord,
    ResilienceConfig,
    SweepExecutionError,
    last_run_report,
    resilient_map,
    run_resilient,
)
from repro.parallel.runner import (
    SweepRunner,
    configure_default_runner,
    default_jobs,
    execute_cell,
    generate_traces_cached,
    get_default_runner,
    set_default_runner,
    traces_for,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "JOURNAL_SCHEMA_VERSION",
    "CellOutcome",
    "CellSpec",
    "JournalEntry",
    "JournalError",
    "JournalVersionError",
    "QuarantineRecord",
    "ResilienceConfig",
    "ResultCache",
    "SWEEP_WORKLOADS",
    "SweepExecutionError",
    "SweepJournal",
    "SweepRunner",
    "canonical_json",
    "config_from_dict",
    "config_to_dict",
    "configure_default_runner",
    "default_cache_dir",
    "default_jobs",
    "execute_cell",
    "generate_traces_cached",
    "get_default_runner",
    "last_run_report",
    "payload_to_result",
    "repo_code_version",
    "resilient_map",
    "result_bytes",
    "result_to_payload",
    "run_resilient",
    "set_default_runner",
    "traces_for",
]
