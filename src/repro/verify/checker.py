"""The crash-state model checker.

Walks one lowered instruction stream, and after every instruction that
can change the reachable crash-state set, enumerates every crash
frontier the scheme's persistency model permits, materializes each into
a durable machine image (an overlay over the thread's initial image),
runs the *same* recovery predicate the dynamic fault campaign uses
(:func:`repro.persistence.recovery.check_recovery`), and demands:

* **atomicity** — the recovered image equals the image after some whole
  number of committed transactions;
* **durability** — some number of transactions it matches lies within
  ``[sealed, executed]`` (a transaction that leaves the image unchanged
  makes two such numbers match): every commit whose durability promise
  was made (its fence retired) survives, and no transaction that never
  committed appears.

State-space reductions (all sound): persist-equivalent line versions
collapse, positions with identical crash-state digests are checked once,
and recovery verdicts are memoized by frontier content.  Under a
``budget`` a position whose frontier count exceeds it degrades to
stratified sampling and the report carries an explicit coverage figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.codegen import ThreadLayout
from repro.core.schemes import Scheme
from repro.isa.instructions import Instruction, Kind
from repro.isa.trace import InstructionTrace, OpTrace
from repro.lint.runner import layout_for_thread, lower_for_lint
from repro.persistence.image import stream_view
from repro.persistence.recovery import (
    CandidateImages,
    RecoveryVerdict,
    check_recovery,
)
from repro.persistence.stream import StreamState
from repro.verify.frontier import (
    Frontier,
    count_frontiers,
    iter_exhaustive,
    materialize,
    sample_frontiers,
)
from repro.verify.model import INTERESTING_KINDS, derive_candidates
from repro.workloads import workload_traces

#: Cap on reported findings per thread; enumeration continues past it
#: only to finish the position walk's coverage accounting.
MAX_FINDINGS = 25

#: Instructions shown before/after the crash point in a counterexample
#: timeline.
TIMELINE_BEFORE = 6
TIMELINE_AFTER = 3


@dataclass(frozen=True)
class Deviation:
    """One line of a counterexample frontier that is *not* at its floor:
    the durable prefix the crash chose versus what was guaranteed."""

    line: int
    region: str
    version: int
    floor: int
    executed: int
    #: instruction index whose write produced the chosen version (-1 =
    #: the initial image).
    producer: int


@dataclass
class Finding:
    """One verified counterexample: a crash point and a minimal frontier
    recovery cannot repair (V001) or repairs to the wrong commit count
    (V002)."""

    rule: str
    thread_id: int
    #: instruction index the crash follows (-1 = before the stream ran).
    position: int
    instruction: str
    message: str
    k: int
    sealed: int
    executed_commits: int
    deviations: List[Deviation]
    entry_count: int
    entries_total: int
    timeline: List[str] = field(default_factory=list)


@dataclass
class CheckReport:
    """Aggregate verdict for one (scheme, workload) check."""

    scheme: Scheme
    workload: str
    threads: int
    instructions: int = 0
    positions: int = 0
    frontiers_checked: int = 0
    #: upper-bound estimate of reachable frontiers across positions (the
    #: raw per-line products; the log-before-data coupling prunes some).
    frontiers_total: int = 0
    exhaustive: bool = True
    findings: List[Finding] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def coverage(self) -> float:
        """Fraction of the frontier space checked (1.0 when exhaustive)."""
        if self.exhaustive or self.frontiers_total == 0:
            return 1.0
        return min(1.0, self.frontiers_checked / self.frontiers_total)

    def merge(self, other: "CheckReport") -> None:
        """Fold another thread's report into this one."""
        self.instructions += other.instructions
        self.positions += other.positions
        self.frontiers_checked += other.frontiers_checked
        self.frontiers_total += other.frontiers_total
        self.exhaustive = self.exhaustive and other.exhaustive
        self.findings.extend(other.findings)
        self.wall_time += other.wall_time


def _render_instruction(index: int, instr: Instruction) -> str:
    parts = [f"[{index}]", instr.kind.value]
    if instr.addr:
        parts.append(f"addr={instr.addr:#x}")
    if instr.txid:
        parts.append(f"tx={instr.txid}")
    if instr.tag:
        parts.append(f"tag={instr.tag}")
    if instr.value is not None:
        parts.append(f"value={instr.value:#x}")
    return " ".join(parts)


def _timeline(
    trace: InstructionTrace, position: int, deviations: Sequence[Deviation]
) -> List[str]:
    """Annotated instruction window around the crash point.

    The crash marker sits after ``position``; lines whose writes the
    minimal frontier exposed (or withheld) are starred.
    """
    producers = {d.producer for d in deviations if d.producer >= 0}
    start = max(0, position - TIMELINE_BEFORE)
    stop = min(len(trace) - 1, max(position, 0) + TIMELINE_AFTER)
    out: List[str] = []
    for index in range(start, stop + 1):
        mark = "*" if index in producers else " "
        out.append(f"  {mark} {_render_instruction(index, trace[index])}")
        if index == position:
            out.append("  --- crash here: durable state is the frontier below ---")
    if position < 0 and out:
        out.insert(0, "  --- crash before the stream ran ---")
    return out


def verify_instruction_trace(
    trace: InstructionTrace,
    scheme: Union[Scheme, str],
    layout: Optional[ThreadLayout] = None,
    initial_image: Optional[Dict[int, int]] = None,
    workload: str = "<trace>",
    budget: Optional[int] = None,
    seed: int = 1,
    max_findings: int = MAX_FINDINGS,
) -> CheckReport:
    """Model-check one already-lowered instruction stream."""
    scheme = Scheme.parse(scheme)
    if not scheme.failure_safe:
        raise ValueError(
            f"scheme {scheme} is not failure safe; crash-state checking "
            f"applies to the logging schemes (PMEM, PMEM+pcommit, ATOM, "
            f"Proteus)"
        )
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 frontier per crash point, got {budget}")
    if layout is None:
        layout = layout_for_thread(trace.thread_id)
    started = time.perf_counter()
    state = StreamState(scheme, layout, initial_image)
    # Frontiers materialize as overlays over the initial image; the
    # words each candidate changes from it are found once, here.
    candidates = CandidateImages(
        derive_candidates(trace, scheme, layout, initial_image), state.initial_image
    )
    report = CheckReport(
        scheme=scheme,
        workload=workload,
        threads=1,
        instructions=len(trace),
    )
    memo: Dict[Tuple[object, ...], RecoveryVerdict] = {}
    seen_digests = set()

    def verdict_of(frontier: Frontier) -> RecoveryVerdict:
        key = (frontier.choices, frontier.entry_count, state.open_txid)
        cached = memo.get(key)
        if cached is None:
            cached = check_recovery(materialize(state, frontier), candidates)
            memo[key] = cached
        return cached

    def issue_of(frontier: Frontier) -> Optional[Tuple[str, str, int]]:
        verdict = verdict_of(frontier)
        if not verdict.consistent:
            return ("V001", verdict.error, verdict.k)
        view = stream_view(state)
        sealed, executed = view.sealed, view.executed
        # The recovered image matches every candidate equal to the first
        # one it matched (``verdict.k``), and any of them in range keeps
        # the promise.  The range belongs to the position, so it stays
        # out of the memoized verdict.
        if not (
            sealed <= verdict.k <= executed
            or any(sealed <= k <= executed for k in candidates.equal_to(verdict.k))
        ):
            return (
                "V002",
                f"recovered image corresponds to {verdict.k} committed "
                f"transactions, but the crash point requires "
                f"{sealed}..{executed} (sealed commits must survive; "
                f"never-committed ones must not appear)",
                verdict.k,
            )
        return None

    def check_position(position: int) -> None:
        if len(report.findings) >= max_findings:
            return  # finding cap reached: the verdict cannot improve
        digest = state.digest()
        if digest in seen_digests:
            return
        seen_digests.add(digest)
        report.positions += 1
        total = count_frontiers(state)
        report.frontiers_total += total
        if budget is not None and total > budget:
            report.exhaustive = False
            frontiers = iter(sample_frontiers(state, budget, seed * 31 + position))
        else:
            frontiers = iter_exhaustive(state)
        checked = 0
        for frontier in frontiers:
            checked += 1
            issue = issue_of(frontier)
            if issue is not None and len(report.findings) < max_findings:
                report.findings.append(
                    _build_finding(trace, state, position, frontier, issue, issue_of)
                )
                break
        report.frontiers_checked += checked

    check_position(-1)
    # An ALU changes neither the symbolic state nor the crash-state set,
    # and only ALU records repeat in a run (most of a lowered stream is
    # think-chain links), so the walk visits each run's first position
    # and steps over ALU runs before any call.
    alu = Kind.ALU
    instructions = trace.instructions
    for index in trace.runs:
        instr = instructions[index]
        kind = instr.kind
        if kind is alu:
            continue
        state.apply(index, instr)
        if kind in INTERESTING_KINDS:
            check_position(index)
    if len(trace):
        check_position(len(trace) - 1)
    report.wall_time = time.perf_counter() - started
    return report


def _build_finding(
    trace: InstructionTrace,
    state: StreamState,
    position: int,
    frontier: Frontier,
    issue: Tuple[str, str, int],
    issue_of: Callable[[Frontier], Optional[Tuple[str, str, int]]],
) -> Finding:
    minimal = _minimize(state, frontier, issue_of)
    final = issue_of(minimal) or issue
    rule, message, k = final
    deviations = [
        Deviation(
            line=line,
            region=state.lines[line].region,
            version=version,
            floor=state.lines[line].floor,
            executed=state.lines[line].executed,
            producer=state.lines[line].producers[version],
        )
        for line, version in minimal.choices
        if version != state.lines[line].floor
    ]
    instruction = (
        _render_instruction(position, trace[position])
        if 0 <= position < len(trace)
        else "<initial state>"
    )
    return Finding(
        rule=rule,
        thread_id=trace.thread_id,
        position=position,
        instruction=instruction,
        message=message,
        k=k,
        sealed=state.commits_sealed(),
        executed_commits=state.commits_executed(),
        deviations=deviations,
        entry_count=minimal.entry_count,
        entries_total=len(state.entries),
        timeline=_timeline(trace, position, deviations),
    )


def _minimize(
    state: StreamState,
    frontier: Frontier,
    issue_of: Callable[[Frontier], Optional[Tuple[str, str, int]]],
) -> Frontier:
    """Greedily shrink a failing frontier to a minimal counterexample.

    Every non-floor line choice is lowered back to its floor when the
    failure survives without it (lowering can only relax the
    log-before-data coupling, so each trial stays reachable), then the
    durable log prefix is grown as far as the failure allows — the
    result deviates from the guaranteed-durable cut only where the bug
    actually lives.
    """
    chosen = frontier.chosen()
    entry_count = frontier.entry_count

    def rebuilt(choice_map: Dict[int, int], count: int) -> Frontier:
        return Frontier(
            choices=tuple(sorted(choice_map.items())), entry_count=count
        )

    for line in sorted(chosen):
        floor = state.lines[line].floor
        if chosen[line] == floor:
            continue
        trial = dict(chosen)
        trial[line] = floor
        if issue_of(rebuilt(trial, entry_count)) is not None:
            chosen = trial
    entries_hi = len(state.entries) if state.open_txid is not None else 0
    while (
        entry_count < entries_hi
        and issue_of(rebuilt(chosen, entry_count + 1)) is not None
    ):
        entry_count += 1
    return rebuilt(chosen, entry_count)


def verify_op_traces(
    op_traces: Sequence[OpTrace],
    scheme: Union[Scheme, str],
    workload: str = "<trace>",
    budget: Optional[int] = None,
    seed: int = 1,
) -> CheckReport:
    """Lower and model-check one stream per thread; merge the reports.

    Threads own disjoint persistent address-space slices, so their crash
    states compose independently and per-thread checking is complete.
    """
    scheme = Scheme.parse(scheme)
    report = CheckReport(scheme=scheme, workload=workload, threads=len(op_traces))
    for op_trace in op_traces:
        lowered, layout = lower_for_lint(op_trace, scheme)
        per_thread = verify_instruction_trace(
            lowered,
            scheme,
            layout=layout,
            initial_image=op_trace.initial_image,
            workload=workload,
            budget=budget,
            seed=seed,
        )
        report.merge(per_thread)
    return report


def verify_workload(
    scheme: Union[Scheme, str],
    workload: Union[str, type],
    threads: int = 1,
    seed: int = 42,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    think_instructions: Optional[int] = None,
    budget: Optional[int] = None,
) -> CheckReport:
    """Generate a workload's traces and model-check the lowered streams."""
    scheme = Scheme.parse(scheme)
    name, traces = workload_traces(
        workload, threads, seed, init_ops, sim_ops, think_instructions
    )
    return verify_op_traces(traces, scheme, workload=name, budget=budget, seed=seed)
