"""Durability tracking over real microarchitectural events.

The timing simulator moves *addresses*, not values: caches, queues and
the NVM device know which lines they hold, never what the program wrote.
The :class:`DurabilityTracker` gives the machine's events their contents
through the persistency model every checker shares: it replays each
thread's retired instructions through a
:class:`~repro.persistence.stream.StreamState`, and it observes every
durability event the machine produces —

* WPQ **admissions** of data, logFlag and software-log lines (the ADR
  persistence domain: admission *is* durability).  Each is stamped with
  the line's stream version: the version after the last store to the
  line that the store buffer had written to the cache;
* the log slots the hardware logging adapters hand out, which name the
  instruction whose undo entry each log write carries, so that a log
  write lost at admission names its entry's position in
  ``StreamState.entries``.

At a crash, :meth:`DurabilityTracker.build_crash_image` puts each line
at its latest surviving admission's version (a line never admitted is
at its initial version) and the in-flight transaction's undo log at the
entries of its retired log-flushes: a retired Proteus log-flush has
always been acknowledged, either directly or through the older flush of
the same block that the LLT squashed it against, and an ATOM store
retires only once its entry is.  The image comes from
:func:`~repro.persistence.image.build_image`, the function persist-verify
uses for its frontiers.  Injected faults act on this history: a dropped
drain leaves the line at the previous surviving version (possibly below
the floor), a torn write leaves a per-word mix of two versions, and a
dropped log write leaves its entry out of the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.codegen import (
    REGION_FLAG,
    REGION_HWLOG,
    CodeGenerator,
    region_of,
)
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Kind
from repro.isa.trace import OpTrace
from repro.persistence.crash import CrashImage, LogEntry
from repro.persistence.image import build_image, stream_view
from repro.persistence.recovery import CandidateImages
from repro.persistence.stream import StreamState
from repro.verify.model import derive_candidates
from repro.workloads.heap import THREAD_SPAN, ThreadAddressSpace

_LINE_MASK = ~(CACHE_LINE - 1)


class ThreadStream:
    """Immutable reference for one thread's trace: its layout, initial
    image, lowered stream and the candidate images recovery may land on
    (derived from that stream, as persist-verify derives them)."""

    def __init__(
        self,
        op_trace: OpTrace,
        scheme: Scheme,
        sw_log_cursor: Optional[int] = None,
    ) -> None:
        """``sw_log_cursor`` positions the software-log slot cursor for a
        trace that continues a checkpointed run (the prefix consumed
        slots); ``None`` starts at the log base."""
        self.thread_id = op_trace.thread_id
        self.scheme = scheme
        self.layout = ThreadAddressSpace(op_trace.thread_id).layout()
        self.sw_log_cursor = sw_log_cursor
        self.initial: Dict[int, int] = dict(op_trace.initial_image or {})
        generator = CodeGenerator(scheme, self.layout, self.thread_id)
        if sw_log_cursor is not None:
            generator.sw_log_cursor = sw_log_cursor
        self.trace = generator.lower_trace(op_trace)
        self.candidates = CandidateImages(
            derive_candidates(self.trace, scheme, self.layout, self.initial),
            self.initial,
        )


@dataclass
class _Admission:
    """One line write admitted to the persistence domain."""

    #: the line's stream version the write carried.
    version: int
    dropped: bool = False
    #: a torn write's words that never landed.
    lost: Tuple[int, ...] = ()


class _ThreadState:
    """Mutable per-run durability state for one thread."""

    def __init__(self, model: ThreadStream) -> None:
        self.stream = StreamState(model.scheme, model.layout, model.initial)
        #: the thread's core's store buffer, once the machine is built.
        self.store_buffer = None
        #: commit points the machine made durable (see committed_count).
        self.committed = 0
        self.flag_set_seen = False
        self.admissions: Dict[int, List[_Admission]] = {}
        self.by_serial: Dict[int, _Admission] = {}
        #: hardware log slot -> index of the instruction whose entry it holds.
        self.slots: Dict[int, int] = {}
        #: instructions whose entry got a log write, and those whose log
        #: write was lost at admission.
        self.logged: Set[int] = set()
        self.lost_logs: Set[int] = set()


class DurabilityTracker:
    """Observes machine durability events and builds crash images."""

    def __init__(self, models: Dict[int, ThreadStream]) -> None:
        self.models = models
        self.states: Dict[int, _ThreadState] = {
            thread: _ThreadState(model) for thread, model in models.items()
        }

    def attach(self, sim) -> None:
        """Learn each thread's store buffer once the machine is built."""
        for core in sim.cores:
            state = self.states.get(core.core_id)
            if state is not None:
                state.store_buffer = core.store_buffer

    # -- event plumbing --------------------------------------------------------

    def _owner(self, addr: int) -> Optional[int]:
        thread = addr // THREAD_SPAN - 1
        return thread if thread in self.models else None

    def classify(self, addr: int) -> Optional[Tuple[int, str]]:
        """(thread, region) for an address, or None when untracked."""
        thread = self._owner(addr)
        if thread is None:
            return None
        return thread, region_of(addr, self.models[thread].layout)

    def on_retire(self, core: int, dyn) -> None:
        state = self.states.get(core)
        if state is None:
            return
        state.stream.apply(dyn.seq, dyn.instr)
        if dyn.instr.kind is Kind.TX_END:
            # tx-end retires only after every data clwb was acknowledged
            # and (Proteus) the LogQ drained: the commit point.
            state.committed += 1

    def on_queue_admit(self, queue_name: str, entry) -> None:
        located = self.classify(entry.addr)
        if located is None:
            return
        thread, region = located
        if region == REGION_HWLOG:
            # Hardware log writes are followed through their slots
            # (on_log_resolved); truncation writes carry no entry.
            return
        state = self.states[thread]
        line = entry.addr & _LINE_MASK
        history = state.stream.lines.get(line)
        if history is None:
            return  # no store touched the line: it holds its initial content
        version = history.executed
        head = state.store_buffer.head() if state.store_buffer is not None else None
        if head is not None:
            # The buffer drains in order: the stores from its head on
            # have not reached the cache yet.
            while history.producers[version] >= head.seq:
                version -= 1
        admission = _Admission(version)
        state.admissions.setdefault(line, []).append(admission)
        state.by_serial[entry.serial] = admission
        if region == REGION_FLAG:
            flag = history.versions[version].get(self.models[thread].layout.logflag_addr, 0)
            if flag:
                state.flag_set_seen = True
            elif state.flag_set_seen:
                state.flag_set_seen = False
                state.committed += 1

    # -- fault events ----------------------------------------------------------

    def on_admission_dropped(self, entry, region: str) -> None:
        """A log/flag write was swallowed at controller admission (the
        machine still believes it durable)."""
        located = self.classify(entry.addr)
        if located is None or region != REGION_HWLOG:
            # swlog / flag: the absence of on_queue_admit *is* the drop.
            return
        state = self.states[located[0]]
        index = state.slots.get(entry.addr & _LINE_MASK)
        if index is not None:
            state.lost_logs.add(index)

    def _admission(self, entry) -> Optional[_Admission]:
        located = self.classify(entry.addr)
        if located is None:
            return None
        return self.states[located[0]].by_serial.get(entry.serial)

    def on_drain_dropped(self, entry) -> None:
        """A WPQ data drain was lost after admission (ADR violation)."""
        admission = self._admission(entry)
        if admission is not None:
            admission.dropped = True

    def on_torn(self, entry, lost_words: Tuple[int, ...]) -> None:
        """A data-line array write tore; ``lost_words`` never landed."""
        admission = self._admission(entry)
        if admission is not None:
            admission.lost = tuple(lost_words)

    def on_log_resolved(self, core: int, index: int, log_to: int) -> None:
        """A hardware log write of instruction ``index``'s entry got its
        log slot ``log_to``."""
        state = self.states.get(core)
        if state is None:
            return
        state.slots[log_to & _LINE_MASK] = index
        state.logged.add(index)

    # -- crash-image synthesis -------------------------------------------------

    def committed_count(self, thread: int) -> int:
        """Commit points the machine made durable: retired ``tx-end``\\ s
        (hardware), or logFlag clears admitted after their set
        (software)."""
        return self.states[thread].committed

    def build_crash_image(self, thread: int) -> CrashImage:
        """The durable image one thread's crash leaves."""
        state = self.states[thread]
        stream = state.stream
        moved: Dict[int, int] = {}
        torn: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for line, history in stream.lines.items():
            surviving = [
                admission
                for admission in state.admissions.get(line, ())
                if not admission.dropped
            ]
            version = surviving[-1].version if surviving else 0
            if version != history.floor:
                moved[line] = version
            if surviving and surviving[-1].lost:
                older = surviving[-2].version if len(surviving) > 1 else 0
                torn[line] = (older, surviving[-1].lost)
        return build_image(stream, moved, self._durable_log(state), torn)

    def _durable_log(self, state: _ThreadState) -> List[LogEntry]:
        """The in-flight transaction's entries whose log writes survived,
        among those of its retired instructions."""
        stream = state.stream
        entries = stream_view(stream).hw_entries
        durable: List[LogEntry] = []
        kept: Dict[int, bool] = {}
        for position, entry in enumerate(stream.entries):
            if entry.index in state.logged:
                kept[entry.block] = entry.index not in state.lost_logs
            # else the LLT squashed the flush against the block's latest
            # logged entry, which stands for it.
            if kept.get(entry.block, False):
                durable.append(entries[position])
        return durable
