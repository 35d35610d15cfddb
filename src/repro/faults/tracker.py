"""Durability tracking over real microarchitectural events.

The timing simulator moves *addresses*, not values: caches, queues and
the NVM device know which lines they hold, never what the program wrote.
The functional persistence model knows the values but enumerates crash
states abstractly.  The :class:`DurabilityTracker` stitches the two
together: it observes every durability event the machine produces —

* WPQ/LPQ **admissions** (the ADR persistency domain: admission *is*
  durability),
* hardware **log-flush acknowledgments** (Proteus LogQ / ATOM posted
  log), resolved to their log-from blocks,
* **commit-point retirements** (``tx-end`` for the hardware schemes; the
  durable logFlag *clear* for software logging),

and maps each event onto the functional transaction records, so that at
an arbitrary crash cycle it can synthesize the durable memory image the
machine would leave behind (:meth:`DurabilityTracker.build_crash_image`).

Content attribution uses *prefixes*: a heap-line admission is stamped
with the number of transactions whose writes the line content reflects.
``candidates[p]`` (the image after ``p`` committed transactions) then
gives the durable value of every word of the line.  Injected faults
mutate the per-line admission history — a dropped drain deletes its
record (the line reverts to the previous admission's content), a torn
write reverts a seeded subset of words — and the crash image is built
from whatever history survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.codegen import (
    REGION_FLAG,
    REGION_HWLOG,
    REGION_SWLOG,
    CodeGenerator,
    region_of,
)
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Kind
from repro.isa.trace import OpTrace
from repro.persistence.crash import CrashImage
from repro.persistence.model import LogEntry, build_functional_txs, image_after
from repro.workloads.heap import (
    THREAD_SPAN,
    ThreadAddressSpace,
)


class ThreadFunctional:
    """Immutable functional reference for one thread's trace.

    Precomputes everything the tracker needs to interpret machine events:
    the functional transactions, every candidate durable image, the
    per-line word universe, and — for software logging — the map from
    software-log cache lines back to the log entries they carry (taken
    from the code generator's own slot allocator).
    """

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
        self.initial, self.txs = build_functional_txs(op_trace, scheme)
        self.tx_index: Dict[int, int] = {
            tx.txid: index for index, tx in enumerate(self.txs)
        }
        #: candidates[k] = durable image after k committed transactions.
        self.candidates: List[Dict[int, int]] = [
            image_after(self.initial, self.txs, k) for k in range(len(self.txs) + 1)
        ]
        #: every word any candidate image mentions, grouped by cache line.
        self.line_words: Dict[int, Tuple[int, ...]] = {}
        words_by_line: Dict[int, Set[int]] = {}
        for image in (self.initial, *(tx.final_words for tx in self.txs)):
            for word in image:
                words_by_line.setdefault(word & ~(CACHE_LINE - 1), set()).add(word)
        for line, words in words_by_line.items():
            self.line_words[line] = tuple(sorted(words))
        self._written_line_sets: List[FrozenSet[int]] = [
            frozenset(tx.written_lines) for tx in self.txs
        ]
        self._covering_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}
        #: software logging: per-tx list of (payload_line, header_line)
        #: slots; slot i carries the transaction's log entry i.
        self.sw_slots: List[List[Tuple[int, int]]] = []
        if scheme.is_software and scheme.failure_safe:
            generator = CodeGenerator(scheme, self.layout, self.thread_id)
            if sw_log_cursor is not None:
                generator.sw_log_cursor = sw_log_cursor
            self.sw_slots = [
                [
                    (slot, slot + CACHE_LINE)
                    for _, slot in generator.alloc_sw_log_slots(tx)
                ]
                for tx in op_trace.transactions()
            ]

    # -- functional lookups ----------------------------------------------------

    def written_lines_of(self, tx_index: int) -> FrozenSet[int]:
        return self._written_line_sets[tx_index]

    def covering_blocks(self, tx_index: int, line: int) -> FrozenSet[int]:
        """Log-from blocks of transaction ``tx_index`` whose entries
        overlap ``line`` (all of them must be durable for the line to be
        eligible as an in-flight durable line — log-before-data, the
        rule :func:`~repro.persistence.crash.crash_image` enforces)."""
        key = (tx_index, line)
        cached = self._covering_cache.get(key)
        if cached is not None:
            return cached
        tx = self.txs[tx_index]
        blocks = frozenset(
            entry.block
            for entry in tx.log_entries
            if not (entry.block + entry.grain <= line or line + CACHE_LINE <= entry.block)
        )
        self._covering_cache[key] = blocks
        return blocks


@dataclass
class _LineRecord:
    """One data-line admission into the persistency domain."""

    serial: int
    #: content descriptor: the line holds ``candidates[prefix]`` values.
    prefix: int
    #: index of the in-flight transaction this admission was attributed
    #: to, or None for a committed-content admission.
    inflight_idx: Optional[int] = None
    dropped: bool = False
    torn_lost: Optional[Tuple[int, ...]] = None


class _ThreadState:
    """Mutable per-run durability state for one thread."""

    def __init__(self) -> None:
        self.committed = 0
        self.inflight_active = False      # hw: between tx-begin and tx-end retire
        self.logical_flag = 0             # sw: last *retired* flag store value
        self.durable_flag = 0             # sw: flag value at last flag admission
        self.flag_set_seen = False        # sw: a set admission since the last clear
        self.acked_log_blocks: Set[int] = set()    # hw: machine-believed durable
        self.durable_log_blocks: Set[int] = set()  # hw: truth (acked minus dropped)
        self.dropped_log_slots: Set[int] = set()   # hw: slots lost at admission
        self.resolved: Dict[int, Tuple[int, int]] = {}  # slot -> (txid, block)
        self.durable_sw_lines: Set[int] = set()
        self.records: Dict[int, List[_LineRecord]] = {}
        self.by_serial: Dict[int, Tuple[int, _LineRecord]] = {}


class DurabilityTracker:
    """Observes machine durability events and synthesizes crash images."""

    def __init__(self, models: Dict[int, ThreadFunctional]) -> None:
        self.models = models
        self.states: Dict[int, _ThreadState] = {t: _ThreadState() for t in models}

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
        kind = dyn.instr.kind
        if kind is Kind.TX_BEGIN:
            state.inflight_active = True
        elif kind is Kind.TX_END:
            # tx-end retires only after every data clwb was acknowledged
            # and (Proteus) the LogQ drained — the commit point.
            state.committed = min(state.committed + 1, len(self.models[core].txs))
            state.inflight_active = False
            state.acked_log_blocks.clear()
            state.durable_log_blocks.clear()
        elif kind is Kind.STORE and dyn.instr.tag == "logflag":
            state.logical_flag = dyn.instr.value or 0

    def on_queue_admit(self, queue_name: str, entry) -> None:
        located = self.classify(entry.addr)
        if located is None:
            return
        thread, region = located
        state = self.states[thread]
        model = self.models[thread]
        if region == REGION_FLAG:
            state.durable_flag = state.logical_flag
            if state.logical_flag == 0:
                if state.flag_set_seen:
                    state.flag_set_seen = False
                    state.committed = min(state.committed + 1, len(model.txs))
            else:
                state.flag_set_seen = True
            return
        if region == REGION_SWLOG:
            state.durable_sw_lines.add(entry.addr & ~(CACHE_LINE - 1))
            return
        if region == REGION_HWLOG:
            # Hardware log durability is tracked via the adapters' flush
            # acknowledgments (on_log_durable); truncation writes and the
            # raw slot admissions carry no extra information.
            return
        self._record_data_admission(thread, state, model, entry)

    def _record_data_admission(
        self, thread: int, state: _ThreadState, model: ThreadFunctional, entry
    ) -> None:
        line = entry.addr & ~(CACHE_LINE - 1)
        k = self._inflight_index(state, model)
        if k is not None and line in model.written_lines_of(k):
            record = _LineRecord(entry.serial, prefix=k + 1, inflight_idx=k)
        else:
            record = _LineRecord(entry.serial, prefix=state.committed)
        state.records.setdefault(line, []).append(record)
        state.by_serial[entry.serial] = (line, record)

    def _inflight_index(
        self, state: _ThreadState, model: ThreadFunctional
    ) -> Optional[int]:
        """Index of the transaction currently doing durable work, if any."""
        if model.scheme.is_software:
            if state.logical_flag == 0:
                return None
            return model.tx_index.get(state.logical_flag)
        if not state.inflight_active:
            return None
        if state.committed >= len(model.txs):
            return None
        return state.committed

    # -- fault events ----------------------------------------------------------

    def on_admission_dropped(self, entry, region: str) -> None:
        """A log/flag write was swallowed at controller admission (the
        machine still believes it durable)."""
        located = self.classify(entry.addr)
        if located is None:
            return
        thread, _ = located
        if region == REGION_HWLOG:
            self.states[thread].dropped_log_slots.add(entry.addr & ~(CACHE_LINE - 1))
        # swlog / flag: the absence of on_queue_admit *is* the drop — the
        # durable flag value and durable log lines simply never update.

    def on_drain_dropped(self, entry) -> None:
        """A WPQ data drain was lost after admission (ADR violation)."""
        for state in self.states.values():
            located = state.by_serial.get(entry.serial)
            if located is not None:
                located[1].dropped = True
                return

    def on_torn(self, entry, lost_words: Tuple[int, ...]) -> None:
        """A data-line array write tore; ``lost_words`` never landed."""
        for state in self.states.values():
            located = state.by_serial.get(entry.serial)
            if located is not None:
                located[1].torn_lost = tuple(lost_words)
                return

    def on_log_resolved(self, core: int, txid: int, log_to: int, log_from: int) -> None:
        state = self.states.get(core)
        if state is None:
            return
        state.resolved[log_to & ~(CACHE_LINE - 1)] = (txid, log_from)

    def on_log_durable(self, core: int, log_to: int) -> None:
        state = self.states.get(core)
        if state is None:
            return
        slot = log_to & ~(CACHE_LINE - 1)
        info = state.resolved.get(slot)
        if info is None:
            return
        _, block = info
        state.acked_log_blocks.add(block)
        if slot in state.dropped_log_slots:
            state.dropped_log_slots.discard(slot)
        else:
            state.durable_log_blocks.add(block)

    # -- crash-image synthesis -------------------------------------------------

    def committed_count(self, thread: int) -> int:
        return self.states[thread].committed

    def candidates(self, thread: int) -> List[Dict[int, int]]:
        return self.models[thread].candidates

    def _latest_surviving(
        self, records: List[_LineRecord]
    ) -> Tuple[Optional[_LineRecord], Optional[_LineRecord]]:
        """(latest, previous) surviving records, newest first."""
        latest: Optional[_LineRecord] = None
        previous: Optional[_LineRecord] = None
        for record in reversed(records):
            if record.dropped:
                continue
            if latest is None:
                latest = record
            else:
                previous = record
                break
        return latest, previous

    def _durable_data_lines(
        self, state: _ThreadState, model: ThreadFunctional
    ) -> FrozenSet[int]:
        """Lines durable with the *current in-flight* transaction's
        content.

        Hardware schemes additionally require every log entry covering
        the line to be machine-acknowledged: a line becomes dirty only
        after its stores drained, and a store drains only after its log
        flush was acknowledged, so an admission can carry in-flight
        content only under that condition.  (Acknowledged-but-dropped
        entries still count here — the machine believed them durable —
        which is exactly how an injected log drop becomes a detectable
        log-before-data violation.)
        """
        k = state.committed
        if k >= len(model.txs):
            return frozenset()
        durable = set()
        for line, records in state.records.items():
            latest, _ = self._latest_surviving(records)
            if latest is None or latest.inflight_idx != k:
                continue
            if not model.scheme.is_software:
                if not model.covering_blocks(k, line) <= state.acked_log_blocks:
                    continue
            durable.add(line)
        return frozenset(durable)

    def _durable_sw_entries(
        self, state: _ThreadState, model: ThreadFunctional
    ) -> List[LogEntry]:
        """Software log entries whose payload *and* header lines are
        durable, for the flagged and the in-flight transaction."""
        wanted: List[int] = []
        k = state.committed
        if k < len(model.txs):
            wanted.append(k)
        if state.durable_flag:
            j = model.tx_index.get(state.durable_flag)
            if j is not None and j not in wanted:
                wanted.append(j)
        entries: List[LogEntry] = []
        for index in wanted:
            if index >= len(model.sw_slots):
                continue
            tx = model.txs[index]
            for entry, (payload, header) in zip(tx.log_entries, model.sw_slots[index]):
                if payload in state.durable_sw_lines and header in state.durable_sw_lines:
                    entries.append(entry)
        return entries

    def build_crash_image(
        self, thread: int, enforce_invariant: bool = True
    ) -> CrashImage:
        """Synthesize the durable image for one thread at the crash."""
        state = self.states[thread]
        model = self.models[thread]
        durable_data = self._durable_data_lines(state, model)
        k = state.committed
        kwargs = dict(
            committed=k,
            durable_data_lines=durable_data,
            enforce_invariant=enforce_invariant,
        )
        if model.scheme.is_software:
            inflight = k < len(model.txs) and state.durable_flag == model.txs[k].txid
            image = CrashImage.from_machine_state(
                model.scheme,
                model.initial,
                model.txs,
                inflight_active=inflight,
                logflag=state.durable_flag,
                sw_log_entries=self._durable_sw_entries(state, model),
                **kwargs,
            )
        else:
            inflight = state.inflight_active and k < len(model.txs)
            image = CrashImage.from_machine_state(
                model.scheme,
                model.initial,
                model.txs,
                inflight_active=state.inflight_active,
                durable_log_blocks=frozenset(state.durable_log_blocks),
                **kwargs,
            )
        overlay_lines = durable_data if inflight else frozenset()
        self._apply_history_corrections(state, model, overlay_lines, image.durable)
        return image

    def _apply_history_corrections(
        self,
        state: _ThreadState,
        model: ThreadFunctional,
        overlay_lines: FrozenSet[int],
        durable: Dict[int, int],
    ) -> None:
        """Overwrite lines whose admission history diverges from the
        clean-run assumption baked into the base image.

        The base image holds ``candidates[committed]`` plus the in-flight
        overlay (``overlay_lines``).  A line's true durable content is its
        *latest surviving* admission — which, after injected drops or
        tears, may be an older prefix (or nothing at all).
        """
        committed = state.committed
        candidates = model.candidates
        for line, records in state.records.items():
            latest, previous = self._latest_surviving(records)
            if latest is not None and line in overlay_lines:
                # In-flight overlay already applied; a torn in-flight line
                # is masked by undo recovery (every covered block is
                # rolled back), so no correction is needed.
                continue
            if latest is None:
                prefix = 0          # every admission of this line was lost
                torn: Tuple[int, ...] = ()
                prev_prefix = 0
            else:
                prefix = latest.prefix
                if latest.inflight_idx == committed and line not in overlay_lines:
                    # Attributed to the current in-flight transaction but
                    # excluded by the hardware eligibility rule: the words
                    # such an admission could legally carry are covered by
                    # durable log entries, which recovery rolls back — the
                    # pre-transaction image is the faithful content.
                    if not model.scheme.is_software and state.inflight_active:
                        prefix = committed
                torn = latest.torn_lost or ()
                prev_prefix = previous.prefix if previous is not None else 0
            if prefix == committed and not torn:
                continue
            target = candidates[prefix]
            fallback = candidates[prev_prefix]
            for word in model.line_words.get(line, ()):
                source = fallback if word in torn else target
                value = source.get(word)
                if value is None:
                    durable.pop(word, None)
                else:
                    durable[word] = value
