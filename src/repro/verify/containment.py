"""Containment: every crash image the fault campaign builds is one
persist-verify enumerates.

Both crash oracles build a :class:`~repro.persistence.crash.CrashImage`:
persist-verify from every frontier a :class:`StreamState` allows at one
stream position (:mod:`repro.verify.frontier`), the fault campaign from
the admissions a real timing run produced before a crash
(:mod:`repro.faults`).  Recovery is sound only while every durable data
line is covered by a durable undo entry, so the two must agree on what a
crash leaves durable.  :func:`check_containment` crashes a workload at
seeded cycles with no injected fault and demands, for each thread, that
the campaign's image is one persist-verify enumerates at the thread's
last retired instruction:

* every data line holds a version in ``[floor, executed]`` of a
  :class:`StreamState` replayed to that instruction, and every other
  data word its initial value;
* the logFlag and the software-log entries recovery reads come from
  flag and log-area lines at such versions;
* the hardware log recovery reads is the log of the retired log-flushes
  (the earliest entry of each block, which recovery applies).

The comparison is on what recovery reads, so images of any shape (whole
images or overlays) can be checked.  A failure means one oracle is wrong
about durability; fix the model, not the check.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.codegen import REGION_DATA, SW_LOG_BYTES_PER_LINE, region_of
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Kind
from repro.isa.trace import InstructionTrace, OpTrace
from repro.persistence.crash import WORD, CrashImage, LogEntry
from repro.persistence.stream import HwEntry, LineHistory, StreamState
from repro.workloads import workload_traces
from repro.workloads.heap import ThreadAddressSpace

_LINE_MASK = ~(CACHE_LINE - 1)

#: A software-log entry as recovery reads it: its block and pre-image.
_EntryKey = Tuple[int, Tuple[Tuple[int, int], ...]]


def replay(
    trace: InstructionTrace,
    scheme: Scheme,
    initial_image: Optional[Dict[int, int]],
    retired: int,
) -> StreamState:
    """The persistency model of ``trace`` after its first ``retired``
    instructions."""
    state = StreamState(
        scheme, ThreadAddressSpace(trace.thread_id).layout(), initial_image
    )
    # Only ALU records repeat in a run, and an ALU changes nothing, so
    # the replay visits the first position of each run that starts
    # before ``retired``.
    alu = Kind.ALU
    runs, instructions = trace.runs, trace.instructions
    for index in runs[:bisect_left(runs, retired)]:
        instr = instructions[index]
        if instr.kind is not alu:
            state.apply(index, instr)
    return state


def containment_error(state: StreamState, image: CrashImage) -> str:
    """Why no frontier persist-verify enumerates at ``state``'s position
    exposes what recovery reads in ``image`` ("" when one does)."""
    durable, base = image.durable, image.base
    by_line: Dict[int, List[int]] = {}
    for word in durable:
        by_line.setdefault(word & _LINE_MASK, []).append(word)

    def held(word: int) -> int:
        value = durable.get(word)
        return base.get(word, 0) if value is None else value

    for line, words in sorted(by_line.items()):
        if line in state.lines or region_of(line, state.layout) != REGION_DATA:
            continue
        for word in words:
            if held(word) != state.initial_image.get(word, 0):
                return f"untracked data word {word:#x} is not its initial value"
    for line, history in sorted(state.lines.items()):
        if history.region != REGION_DATA:
            continue
        words = set(history.versions[-1]).union(by_line.get(line, ()))
        if not any(
            all(version.get(word, 0) == held(word) for word in words)
            for version in history.versions[history.floor:]
        ):
            return (
                f"data line {line:#x} holds no version in "
                f"[{history.floor}, {history.executed}]"
            )
    if state.scheme.is_software:
        return _software_error(state, image)
    return _hardware_error(state, image)


def _software_error(state: StreamState, image: CrashImage) -> str:
    layout = state.layout
    flag = state.lines.get(layout.logflag_addr & _LINE_MASK)
    flags = (
        {0}
        if flag is None
        else {v.get(layout.logflag_addr, 0) for v in flag.versions[flag.floor:]}
    )
    if image.logflag not in flags:
        return f"logFlag {image.logflag} is no flag version in [floor, executed]"
    if not image.logflag:
        return ""  # recovery reads no log entry
    wanted = sorted(
        _key(entry) for entry in image.log_entries if entry.txid == image.logflag
    )
    options = [
        _pair_options(header, state.lines.get(line - CACHE_LINE), image.logflag)
        for line, header in sorted(state.lines.items())
        if header.region != REGION_DATA
        and layout.sw_log_base <= line < layout.sw_log_base + layout.sw_log_size
        and (line - layout.sw_log_base) % SW_LOG_BYTES_PER_LINE == CACHE_LINE
    ]
    used: Set[int] = set()
    for key in wanted:
        slot = next(
            (i for i, keys in enumerate(options) if i not in used and key in keys),
            None,
        )
        if slot is None:
            return f"software log entry for {key[0]:#x} is in no log-area version"
        used.add(slot)
    for i, keys in enumerate(options):
        if i not in used and None not in keys:
            return "a durable software log entry is missing from the image"
    return ""


def _key(entry: LogEntry) -> _EntryKey:
    return entry.block, tuple(sorted(entry.pre_image.items()))


def _pair_options(
    header: LineHistory, payload: Optional[LineHistory], txid: int
) -> Set[Optional[_EntryKey]]:
    """Every entry recovery reads from one (header, payload) slot at
    versions in [floor, executed]; None where it reads none."""
    line = header.line
    payload_line = line - CACHE_LINE
    payloads = [{}] if payload is None else payload.versions[payload.floor:]
    keys: Set[Optional[_EntryKey]] = set()
    for version in range(header.floor, header.executed + 1):
        logged = header.versions[version].get(line, 0)
        if not logged or header.txids[version] != txid:
            keys.add(None)
            continue
        for words in payloads:
            keys.add(
                (
                    logged,
                    tuple(
                        (logged + delta, words.get(payload_line + delta, 0))
                        for delta in range(0, CACHE_LINE, WORD)
                    ),
                )
            )
    return keys


def _earliest(
    entries: Sequence[Union[LogEntry, HwEntry]], txid: int
) -> Dict[int, Dict[int, int]]:
    """Each block's earliest pre-image among ``txid``'s entries: what
    undo recovery writes back."""
    out: Dict[int, Dict[int, int]] = {}
    for entry in sorted(entries, key=lambda e: e.order):
        if entry.txid == txid and entry.block not in out:
            out[entry.block] = dict(entry.pre_image)
    return out


def _hardware_error(state: StreamState, image: CrashImage) -> str:
    undone = {} if image.end_mark else _earliest(image.log_entries, image.inflight_txid)
    expected = (
        {} if state.open_txid is None else _earliest(state.entries, state.open_txid)
    )
    if undone == expected:
        return ""
    missing = sorted(set(expected) - set(undone))
    extra = sorted(set(undone) - set(expected))
    return (
        f"hardware log is not the retired log-flushes' log: "
        f"missing {[hex(b) for b in missing]}, extra {[hex(b) for b in extra]}"
    )


@dataclass
class ContainmentResult:
    """Containment verdicts of one (scheme, workload, threads) cell."""

    scheme: Scheme
    workload: str
    threads: int
    #: thread images checked (one per thread per crash).
    checked: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> str:
        lines = [
            f"containment: scheme={self.scheme} workload={self.workload} "
            f"threads={self.threads} images={self.checked} "
            f"-> {'PASS' if self.ok else 'FAIL'}"
        ]
        lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines) + "\n"


def crash_states(
    scheme: Scheme, traces: List[OpTrace], cycle: int, seed: int = 7
) -> Iterator[Tuple[int, StreamState, CrashImage]]:
    """Crash a run of ``traces`` at ``cycle`` with no injected fault;
    yield each thread's id, its :class:`StreamState` replayed to its
    last retired instruction, and the campaign's image of its durable
    state."""
    # Only this check needs the timing machine, so importing
    # repro.verify does not load it.
    from repro.faults.harness import FaultInjector
    from repro.faults.plan import FaultPlan, Trigger
    from repro.faults.tracker import DurabilityTracker, ThreadStream
    from repro.sim.config import fast_nvm_config
    from repro.sim.engine import SimulationHalted
    from repro.sim.simulator import Simulator

    models = {trace.thread_id: ThreadStream(trace, scheme) for trace in traces}
    tracker = DurabilityTracker(models)
    injector = FaultInjector(FaultPlan(seed=seed, crash=Trigger("cycle", cycle)), tracker)
    sim = Simulator(
        fast_nvm_config(cores=len(traces)), scheme, traces, fault_injector=injector
    )
    try:
        sim.run()
    except SimulationHalted:
        pass
    for core, trace in zip(sim.cores, traces):
        # Retirement is in order: every instruction before the oldest
        # one still in the ROB has retired.
        retired = core.pc - core.rob_used
        state = replay(core.trace, scheme, trace.initial_image, retired)
        yield core.core_id, state, tracker.build_crash_image(core.core_id)


def check_containment(
    scheme: Union[Scheme, str],
    workload: Union[str, type],
    threads: int = 1,
    crashes: int = 20,
    seed: int = 7,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    think_instructions: Optional[int] = None,
) -> ContainmentResult:
    """Crash one workload run at ``crashes`` seeded cycles, drawn while
    the cores run, and check every thread's campaign image."""
    from repro.sim.config import fast_nvm_config
    from repro.sim.simulator import Simulator

    scheme = Scheme.parse(scheme)
    name, traces = workload_traces(
        workload, threads, seed, init_ops, sim_ops, think_instructions
    )
    baseline = Simulator(fast_nvm_config(cores=threads), scheme, traces)
    baseline.run()
    finish = baseline.core_finish_cycle or baseline.engine.cycle
    rng = random.Random(f"containment:{scheme.value}:{name}:{threads}:{seed}")
    result = ContainmentResult(scheme, name, threads)
    for cycle in rng.sample(range(1, finish), min(crashes, finish - 1)):
        for thread, state, image in crash_states(scheme, traces, cycle, seed):
            result.checked += 1
            error = containment_error(state, image)
            if error:
                result.failures.append(f"cycle {cycle} thread {thread}: {error}")
    return result
