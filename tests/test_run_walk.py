"""The run walk against the per-instruction walks it replaced.

Every walker of a lowered stream (verify's position loop,
``_span_bounds``, ``derive_candidates``, lint's ``Analyzer.run`` and the
containment check's ``replay``) steps from one run start of
:attr:`InstructionTrace.runs` to the next instead of visiting every
instruction.  The per-instruction walks live on here as the oracle, and
on every lowered stream of every scheme x workload x 1 and 2 threads,
every corpus stream and every mutator's output:

* the index equals a brute-force recomputation from the records;
* ``_span_bounds`` and ``derive_candidates`` equal the reference walks';
* verify and lint visit exactly the positions the reference walk does;
* ``replay`` reaches the reference replay's ``StreamState.digest`` at
  run starts, inside runs and at both ends of the stream;
* ``InstructionTrace.count`` counts every instruction of each kind.
"""

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.codegen import REGION_DATA, ThreadLayout, region_of
from repro.core.schemes import Scheme
from repro.isa.instructions import Instruction, Kind, clwb, sfence, store
from repro.isa.trace import InstructionTrace
from repro.lint import mutate
from repro.lint.engine import Analyzer
from repro.lint.profiles import profile_for
from repro.lint.runner import layout_for_thread, lint_instruction_trace, lower_for_lint
from repro.persistence.crash import WORD
from repro.persistence.stream import StreamState
from repro.verify import checker
from repro.verify.containment import replay
from repro.verify.model import _span_bounds, derive_candidates
from repro.workloads import workload_traces
from tests.corpus import CORPUS, VERIFY_CORPUS, clean_op_trace

WORKLOADS = ("QE", "HM", "SS", "AT", "BT", "RT")
#: Small streams that still hold think chains (the default think time).
SIZING = dict(seed=7, init_ops=12, sim_ops=4)


# -- the references ------------------------------------------------------------


def brute_force_runs(trace: InstructionTrace) -> List[int]:
    """Each maximal run of one ALU record starts one run; every other
    position starts its own."""
    ins = trace.instructions
    return [
        p
        for p in range(len(ins))
        if not (p and ins[p] is ins[p - 1] and ins[p].kind is Kind.ALU)
    ]


def check_run_index(trace: InstructionTrace) -> None:
    """The index invariant: run starts ascend from 0 inside the stream,
    and a position that starts no run holds the same ALU record as the
    position before it."""
    runs, ins = trace.runs.tolist(), trace.instructions
    assert runs == sorted(set(runs))
    assert (runs[0] == 0) if ins else not runs
    assert all(0 <= start < len(ins) for start in runs)
    starts = set(runs)
    for p in range(1, len(ins)):
        if p not in starts:
            assert ins[p] is ins[p - 1] and ins[p].kind is Kind.ALU, p


def reference_span_bounds(
    trace: InstructionTrace, scheme: Scheme
) -> List[Tuple[int, int]]:
    """``_span_bounds`` as a walk over every instruction."""
    spans: List[Tuple[int, int]] = []
    if profile_for(scheme).tx_marks:
        begin: Optional[int] = None
        for index, instr in enumerate(trace):
            if instr.kind is Kind.TX_BEGIN:
                if begin is None:
                    begin = index
            elif instr.kind is Kind.TX_END and begin is not None:
                spans.append((begin, index))
                begin = None
        if begin is not None:
            spans.append((begin, len(trace) - 1))
        return spans
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for index, instr in enumerate(trace):
        if instr.txid:
            first.setdefault(instr.txid, index)
            last[instr.txid] = index
    return sorted((first[txid], last[txid]) for txid in first)


def reference_candidates(
    trace: InstructionTrace,
    scheme: Scheme,
    layout: ThreadLayout,
    initial_image: Optional[Dict[int, int]],
) -> List[Dict[int, int]]:
    """``derive_candidates`` as a walk over every instruction of each span."""
    candidates = [dict(initial_image or {})]
    image = dict(initial_image or {})
    last_value_of_load = 0
    for begin, end in reference_span_bounds(trace, scheme):
        for instr in trace.instructions[begin:end + 1]:
            if instr.kind is Kind.LOAD:
                last_value_of_load = image.get(instr.addr, 0)
            if instr.kind is not Kind.STORE:
                continue
            if region_of(instr.addr, layout) != REGION_DATA:
                continue
            value = instr.value
            if value is None:
                value = last_value_of_load if instr.tag == "log-copy" else 0
            for word in range(instr.addr, instr.addr + instr.size, WORD):
                image[word] = value
        candidates.append(dict(image))
    return candidates


def reference_visits(trace: InstructionTrace) -> List[int]:
    """The positions the per-instruction walks acted on: every non-ALU."""
    return [i for i, instr in enumerate(trace) if instr.kind is not Kind.ALU]


def reference_digests(
    trace: InstructionTrace,
    scheme: Scheme,
    initial_image: Optional[Dict[int, int]],
    retired: List[int],
) -> Dict[int, Tuple[object, ...]]:
    """``replay(...).digest()`` for each count in ``retired``, replayed
    one instruction at a time."""
    state = StreamState(scheme, layout_for_thread(trace.thread_id), initial_image)
    digests = {}
    wanted = sorted(set(retired))
    index = 0
    for count in wanted:
        while index < count:
            if trace[index].kind is not Kind.ALU:
                state.apply(index, trace[index])
            index += 1
        digests[count] = state.digest()
    return digests


# -- what the run walks visit ---------------------------------------------------


class RecordingAnalyzer(Analyzer):
    """Lint's analyzer, noting each position its walk visits."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.visited: List[int] = []

    def _visit(self, index: int, instr: Instruction) -> None:
        self.visited.append(index)
        super()._visit(index, instr)


def verify_visits(
    trace, scheme, layout, initial_image, monkeypatch
) -> Tuple[List[int], int]:
    """Positions verify's walk applies, and the report's instruction
    count (one frontier per crash point keeps the check cheap)."""
    visited: List[int] = []

    class Recording(StreamState):
        def apply(self, index: int, instr: Instruction) -> None:
            visited.append(index)
            super().apply(index, instr)

    with monkeypatch.context() as patch:
        patch.setattr(checker, "StreamState", Recording)
        report = checker.verify_instruction_trace(
            trace, scheme, layout=layout, initial_image=initial_image, budget=1
        )
    return visited, report.instructions


def retired_counts(trace: InstructionTrace) -> List[int]:
    """Replay lengths: both ends, and run starts, the position after
    them and the middle of the longest runs, spread over the stream."""
    runs = trace.runs.tolist()
    stops = runs[1:] + [len(trace)]
    longest = sorted(zip(runs, stops), key=lambda run: run[0] - run[1])[:4]
    spread = runs[:: max(1, len(runs) // 6)]
    counts = {0, len(trace)}
    counts.update(start + (stop - start) // 2 for start, stop in longest)
    counts.update(start for start in spread)
    counts.update(min(start + 1, len(trace)) for start in spread)
    return sorted(counts)


def assert_walks_match(
    trace: InstructionTrace,
    scheme: Scheme,
    layout: ThreadLayout,
    initial_image: Optional[Dict[int, int]],
    monkeypatch,
) -> None:
    assert trace.runs.tolist() == brute_force_runs(trace)
    for kind in Kind:
        assert trace.count(kind) == sum(1 for instr in trace if instr.kind is kind)
    assert _span_bounds(trace, scheme) == reference_span_bounds(trace, scheme)
    assert derive_candidates(trace, scheme, layout, initial_image) == (
        reference_candidates(trace, scheme, layout, initial_image)
    )
    visits = reference_visits(trace)
    analyzer = RecordingAnalyzer(
        trace, profile_for(scheme), layout, thread_id=trace.thread_id
    )
    analyzer.run()
    assert analyzer.visited == visits
    assert lint_instruction_trace(trace, scheme, layout).instructions == len(trace)
    if scheme.failure_safe:
        visited, instructions = verify_visits(
            trace, scheme, layout, initial_image, monkeypatch
        )
        assert visited == visits
        assert instructions == len(trace)
    retired = retired_counts(trace)
    expected = reference_digests(trace, scheme, initial_image, retired)
    for count in retired:
        assert replay(trace, scheme, initial_image, count).digest() == expected[count]


# -- the inputs ------------------------------------------------------------------


@lru_cache(maxsize=None)
def lowered_streams(scheme: Scheme, workload: str, threads: int):
    """(trace, layout, initial image) of every thread's lowered stream."""
    _, op_traces = workload_traces(workload, threads, **SIZING)
    streams = []
    for op_trace in op_traces:
        trace, layout = lower_for_lint(op_trace, scheme)
        streams.append((trace, layout, op_trace.initial_image))
    return tuple(streams)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_lowered_streams_walk_as_the_reference(scheme, workload, threads, monkeypatch):
    for trace, layout, initial_image in lowered_streams(scheme, workload, threads):
        assert_walks_match(trace, scheme, layout, initial_image, monkeypatch)


def test_the_lowered_streams_hold_link_runs():
    """The sizing keeps think chains, so the oracle sees runs of links."""
    trace, _, _ = lowered_streams(Scheme.PROTEUS, "QE", 1)[0]
    lengths = [stop - start for start, stop in zip(trace.runs, trace.runs[1:])]
    assert max(lengths) > 1
    assert len(trace.runs) * 4 < len(trace)


@pytest.mark.parametrize(
    "case", CORPUS + VERIFY_CORPUS, ids=lambda case: case.name
)
def test_corpus_streams_walk_as_the_reference(case, monkeypatch):
    scheme = Scheme.parse(case.scheme)
    trace = case.buggy_trace()
    assert_walks_match(
        trace,
        scheme,
        layout_for_thread(trace.thread_id),
        clean_op_trace().initial_image,
        monkeypatch,
    )


def _is_link(index: int, instr: Instruction) -> bool:
    return instr.kind is Kind.ALU and instr.dep == 1


#: Every mutator of repro.lint.mutate, plus drops inside link runs.
MUTATORS = {
    "drop_log_flush": mutate.drop_log_flush,
    "drop_sfence-2": lambda t: mutate.drop_sfence(t, 2),
    "drop_clwb_tagged-log": lambda t: mutate.drop_clwb_tagged(t, "log"),
    "drop_clwb_tagged-logflag": lambda t: mutate.drop_clwb_tagged(t, "logflag"),
    "drop_clwb_tagged-data": lambda t: mutate.drop_clwb_tagged(t, ""),
    "drop_clwb_tagged_every-data-2": lambda t: mutate.drop_clwb_tagged_every(t, "", 2),
    "drop_log_flush_every-2": lambda t: mutate.drop_log_flush_every(t, 2),
    "duplicate_clwb_tagged": mutate.duplicate_clwb_tagged,
    "reorder_store_before_log": mutate.reorder_store_before_log,
    "orphan_tx_end": mutate.orphan_tx_end,
    "dangling_tx_begin": mutate.dangling_tx_begin,
    "dangling_log_flush": mutate.dangling_log_flush,
    "store_outside_tx": mutate.store_outside_tx,
    "corrupt_sw_log_payload": mutate.corrupt_sw_log_payload,
    "drop_sw_log_header": mutate.drop_sw_log_header,
    "defer_clwb_past_commit": mutate.defer_clwb_past_commit,
    "drop_nth-link-5": lambda t: mutate.drop_nth(t, _is_link, 5),
    "drop_every-link-3": lambda t: mutate.drop_every(t, _is_link, 3),
    "drop_every-alu-1": lambda t: mutate.drop_every(
        t, lambda i, ins: ins.kind is Kind.ALU, 1
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_mutated_streams_walk_as_the_reference(name, monkeypatch):
    """Each mutator's output on every scheme's QE stream it applies to
    (a mutator raises where the stream lacks what it mutates)."""
    mutated = 0
    for scheme in Scheme:
        trace, layout, initial_image = lowered_streams(scheme, "QE", 1)[0]
        try:
            buggy = MUTATORS[name](trace)
        except (ValueError, StopIteration):
            continue
        mutated += 1
        assert_walks_match(buggy, scheme, layout, initial_image, monkeypatch)
    assert mutated


def links_only_transaction() -> InstructionTrace:
    """A software-lowered shape whose second transaction only a run of
    ALU links carries (no head, no store)."""
    trace = InstructionTrace()
    trace.append(store(0x1000, value=1, txid=1))
    trace.append(clwb(0x1000, txid=1))
    trace.append(sfence())
    trace.append(Instruction(Kind.ALU))
    trace.append_run(Instruction(Kind.ALU, dep=1, txid=2), 4)
    trace.append(store(0x1040, value=3, txid=3))
    trace.append(clwb(0x1040, txid=3))
    trace.append(sfence())
    return trace


@pytest.mark.parametrize("scheme", (Scheme.PMEM, Scheme.PMEM_NOLOG), ids=lambda s: s.name)
def test_a_transaction_only_links_carry_forms_a_span(scheme, monkeypatch):
    trace = links_only_transaction()
    assert _span_bounds(trace, scheme) == [(0, 1), (4, 7), (8, 9)]
    assert len(derive_candidates(trace, scheme, layout_for_thread(0))) == 4
    assert_walks_match(trace, scheme, layout_for_thread(0), None, monkeypatch)
