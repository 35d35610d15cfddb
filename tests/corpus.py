"""Deliberately-buggy instruction-stream corpus.

Each case starts from a *correct* lowered stream (the same lowering the
simulator executes) and applies one mutator from
:mod:`repro.lint.mutate` to manufacture one specific
persistency-ordering bug — exactly the bug class one lint rule exists to
catch.  ``tests/test_lint_rules.py`` drives one test per case and checks
that every diagnostic code in the catalog is covered;
``tests/test_lint_crossval.py`` reuses the clean traces for lint's side
of the static/dynamic cross-check, whose mutations and expected codes
live in :data:`repro.verify.crossval.ANALOG_MUTATORS`.

This module is plain data, not a pytest file.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.trace import InstructionTrace, OpTrace
from repro.lint import mutate
from repro.lint.runner import lower_for_lint
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces

#: Small but non-trivial run: several multi-store transactions.
TRACE_KWARGS = dict(init_ops=12, sim_ops=6, think_instructions=0)


@lru_cache(maxsize=None)
def clean_op_trace(workload: str = "QE", seed: int = 7) -> OpTrace:
    """One thread's op trace for the corpus workload."""
    workload_cls = resolve_workload(workload)
    (trace,) = generate_traces(workload_cls, threads=1, seed=seed, **TRACE_KWARGS)
    return trace


@lru_cache(maxsize=None)
def clean_trace(scheme: str, workload: str = "QE", seed: int = 7) -> InstructionTrace:
    """A correct lowered stream for ``scheme`` (cached; treat as frozen)."""
    lowered, _ = lower_for_lint(clean_op_trace(workload, seed), Scheme.parse(scheme))
    return lowered


def flush_after_fence(trace: InstructionTrace) -> InstructionTrace:
    """Repeat the first data ``clwb`` right after the fence that follows
    it: the repeat flushes a line the fence already wrote back (and a
    ``tx-end`` already drained), so it is redundant (W101)."""
    target = next(
        i for i, ins in enumerate(trace) if ins.kind is Kind.CLWB and ins.tag == ""
    )
    fence = next(i for i in range(target + 1, len(trace)) if trace[i].kind.is_fence)
    order = list(range(fence + 1)) + [target] + list(range(fence + 1, len(trace)))
    return mutate.rebuild(trace, order)


@dataclass(frozen=True)
class CorpusCase:
    """One manufactured bug: mutate a clean stream, expect these codes."""

    name: str
    scheme: str
    mutator: Callable[[InstructionTrace], InstructionTrace]
    expected: Tuple[str, ...]

    def buggy_trace(self) -> InstructionTrace:
        return self.mutator(clean_trace(self.scheme))


CORPUS: Tuple[CorpusCase, ...] = (
    # -- software undo logging (PMEM) --------------------------------------
    CorpusCase(
        "pmem-drop-log-clwb",
        "pmem",
        lambda t: mutate.drop_clwb_tagged(t, "log"),
        ("P002",),
    ),
    CorpusCase(
        "pmem-drop-flag-clwb",
        "pmem",
        lambda t: mutate.drop_clwb_tagged(t, "logflag"),
        ("P003",),
    ),
    CorpusCase(
        "pmem-drop-sfence-after-log",
        "pmem",
        lambda t: mutate.drop_sfence(t, 1),
        ("P002",),
    ),
    CorpusCase(
        "pmem-drop-sfence-after-flag-set",
        "pmem",
        lambda t: mutate.drop_sfence(t, 2),
        ("P003",),
    ),
    CorpusCase(
        "pmem-drop-sfence-after-body",
        "pmem",
        lambda t: mutate.drop_sfence(t, 3),
        ("P005",),
    ),
    CorpusCase(
        "pmem-reorder-store-before-log",
        "pmem",
        mutate.reorder_store_before_log,
        ("P002",),
    ),
    CorpusCase(
        "pmem-store-outside-tx",
        "pmem",
        mutate.store_outside_tx,
        ("P004",),
    ),
    CorpusCase(
        "pmem-redundant-data-clwb",
        "pmem",
        lambda t: mutate.duplicate_clwb_tagged(t, ""),
        ("W101",),
    ),
    CorpusCase(
        "pmem-flush-after-fence",
        "pmem",
        flush_after_fence,
        ("W101",),
    ),
    # -- Proteus (software-supported hardware logging) ---------------------
    CorpusCase(
        "proteus-drop-all-log-flushes",
        "proteus",
        lambda t: mutate.drop_log_flush_every(t, 1),
        ("P001", "W102"),
    ),
    CorpusCase(
        "proteus-drop-one-log-flush",
        "proteus",
        lambda t: mutate.drop_log_flush(t, 1),
        ("P002", "W102"),
    ),
    CorpusCase(
        "proteus-reorder-store-before-log",
        "proteus",
        mutate.reorder_store_before_log,
        ("P002",),
    ),
    CorpusCase(
        "proteus-orphan-tx-end",
        "proteus",
        mutate.orphan_tx_end,
        ("P004",),
    ),
    CorpusCase(
        "proteus-dangling-tx-begin",
        "proteus",
        mutate.dangling_tx_begin,
        ("P004",),
    ),
    CorpusCase(
        # A flush with no producing log-load carries no undo data, so the
        # store it was meant to cover is flagged too.
        "proteus-dangling-log-flush",
        "proteus",
        mutate.dangling_log_flush,
        ("P006", "P002"),
    ),
    CorpusCase(
        "proteus-drop-data-clwb",
        "proteus",
        lambda t: mutate.drop_clwb_tagged(t, ""),
        ("P005",),
    ),
    # -- ATOM (pure hardware logging) --------------------------------------
    CorpusCase(
        "atom-drop-data-clwb",
        "atom",
        lambda t: mutate.drop_clwb_tagged(t, ""),
        ("P005",),
    ),
    CorpusCase(
        "atom-orphan-tx-end",
        "atom",
        mutate.orphan_tx_end,
        ("P004",),
    ),
    CorpusCase(
        "atom-flush-after-tx-end",
        "atom",
        flush_after_fence,
        ("W101",),
    ),
)


def cases_for_code(code: str) -> Tuple[CorpusCase, ...]:
    """Corpus cases expected to raise ``code``."""
    return tuple(case for case in CORPUS if code in case.expected)


@dataclass(frozen=True)
class VerifyCase:
    """One known-crash-inconsistent stream for the model checker.

    ``lint_detects`` records whether ``persist-lint``'s pattern rules see
    the bug at all; the checker must counterexample every case, and at
    least one case must carry ``lint_detects=False`` — that gap is the
    checker's reason to exist.
    """

    name: str
    scheme: str
    mutator: Callable[[InstructionTrace], InstructionTrace]
    #: does the ordering linter flag this stream (with any error)?
    lint_detects: bool

    def buggy_trace(self) -> InstructionTrace:
        return self.mutator(clean_trace(self.scheme))


VERIFY_CORPUS: Tuple[VerifyCase, ...] = (
    # A torn log pair: the Proteus LogFlush for one captured line never
    # issues, so the undo entry exists executed-side but a crash frontier
    # can expose the covered data store without it.
    VerifyCase(
        "proteus-torn-log-pair",
        "proteus",
        lambda t: mutate.drop_log_flush(t, 1),
        lint_detects=True,
    ),
    # The software analog: payload persists, covering header never
    # written, so recovery cannot apply the entry.
    VerifyCase(
        "pmem-torn-log-pair",
        "pmem",
        lambda t: mutate.drop_sw_log_header(t, 1),
        lint_detects=True,
    ),
    # Epoch-spanning persist: a data clwb deferred past its commit
    # fence — the crash window between commit and the stray flush loses
    # a sealed commit's write.
    VerifyCase(
        "pmem-epoch-spanning-persist",
        "pmem",
        lambda t: mutate.defer_clwb_past_commit(t, 1),
        lint_detects=True,
    ),
    VerifyCase(
        "proteus-epoch-spanning-persist",
        "proteus",
        lambda t: mutate.defer_clwb_past_commit(t, 1),
        lint_detects=True,
    ),
    # Recovery-visible partial transaction: the fence after the tx body
    # is gone, so commit can seal with body lines still un-persisted.
    VerifyCase(
        "pmem-partial-tx-visible",
        "pmem",
        lambda t: mutate.drop_sfence(t, 3),
        lint_detects=True,
    ),
    # The flagship lint miss: the stream's ordering *shape* is perfect —
    # every rule passes — but one log payload holds a wrong pre-image,
    # so rollback restores garbage.  Value-level bugs are invisible to
    # pattern lint and only the crash-state checker sees them.
    VerifyCase(
        "pmem-corrupt-log-payload",
        "pmem",
        lambda t: mutate.corrupt_sw_log_payload(t, 1),
        lint_detects=False,
    ),
)
