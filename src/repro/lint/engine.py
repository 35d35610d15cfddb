"""The persist-lint rule engine.

Walks one thread's lowered instruction stream in order through the
persistency model persist-verify uses too
(:class:`~repro.persistence.stream.StreamState`): at every instruction
the rules run first and read each line's
:class:`~repro.persistence.stream.PersistState` from the model, then the
model applies the instruction.  ``tx-end`` goes the other way round,
because its checks read the state the commit drained.

Rule state that does not track durability stays here: software undo-log
entries (reconstructed from the log-copy/header stores and mapped back
to the data line they cover), Proteus ``log-load``/``log-flush`` pairs
per 32 B block, the logFlag transition state, transaction shape and
per-transaction write sets.  Coverage violations that may still be
*ordering* bugs (the log shows up later) are deferred and resolved at
the commit point — that is what distinguishes P002 (log too late) from
P001 (no log at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.core.codegen import (
    REGION_DATA,
    REGION_FLAG,
    REGION_SWLOG,
    SW_LOG_BYTES_PER_LINE,
    ThreadLayout,
    region_of,
)
from repro.isa.instructions import (
    CACHE_LINE,
    Instruction,
    Kind,
    cache_line_of,
    expand_lines,
    expand_log_blocks,
    log_block_of,
)
from repro.isa.trace import InstructionTrace
from repro.lint.diagnostics import Diagnostic
from repro.lint.profiles import Profile
from repro.persistence.stream import PersistState, StreamState


@dataclass
class SwLogEntry:
    """One reconstructed software undo-log entry (payload + header)."""

    slot: int
    txid: int
    #: data line this entry covers (from the header store), -1 unknown.
    data_line: int = -1
    #: log-area cache lines the entry occupies (written so far).
    log_lines: Set[int] = field(default_factory=set)


@dataclass
class _PendingCoverage:
    """A transactional store seen before any undo coverage for a unit."""

    store_index: int
    unit: int
    txid: int


class Analyzer:
    """Run every profile-enabled rule over one thread's stream."""

    def __init__(self, trace: InstructionTrace, profile: Profile,
                 layout: ThreadLayout, thread_id: int = 0) -> None:
        self.trace = trace
        self.profile = profile
        self.layout = layout
        self.thread_id = thread_id
        self.diagnostics: List[Diagnostic] = []
        self.model = StreamState(profile.scheme, layout)
        self._logging = profile.logging
        self._tx_marks = profile.tx_marks

        #: current transaction (explicit marks); None outside.
        self._active_txid: Optional[int] = None
        self._active_begin = -1
        #: data lines stored transactionally since the last commit point.
        self._tx_written: Dict[int, int] = {}
        self._pending: List[_PendingCoverage] = []

        # Software-logging state.
        self._entries: Dict[int, SwLogEntry] = {}
        self._coverage_sw: Dict[int, SwLogEntry] = {}
        self._flag_store: Optional[int] = None
        self._flag_reported = False

        # SSHL (Proteus) state, reset at every tx-end.
        self._lr_blocks: Dict[int, int] = {}
        self._unflushed_loads: Dict[int, int] = {}
        self._covered_blocks: Dict[int, int] = {}

    # -- helpers ---------------------------------------------------------------

    def _report(self, code: str, index: int, message: str,
                addr: Optional[int] = None, txid: int = 0) -> None:
        if self.profile.enabled(code):
            self.diagnostics.append(
                Diagnostic(
                    code=code,
                    thread_id=self.thread_id,
                    index=index,
                    message=message,
                    addr=addr,
                    txid=txid,
                )
            )

    def _entry_durable(self, entry: SwLogEntry) -> bool:
        durable = self.model.durable
        return bool(entry.log_lines) and all(durable(line) for line in entry.log_lines)

    # -- main walk -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        """Walk the stream and return the collected diagnostics.

        An ALU carries no persistency obligation and leaves the model
        unchanged, and only ALU records repeat in a run (most of a
        lowered stream is think-chain links), so the walk visits each
        run's first position and steps over ALU runs before any call;
        indices still count every instruction.
        """
        alu = Kind.ALU
        visit = self._visit
        instructions = self.trace.instructions
        for index in self.trace.runs:
            instr = instructions[index]
            if instr.kind is not alu:
                visit(index, instr)
        self._finalize()
        return self.diagnostics

    def _visit(self, index: int, instr: Instruction) -> None:
        """Run the rules on one instruction, then apply it to the model
        (``tx-end`` the other way round)."""
        kind = instr.kind
        model = self.model
        if kind is Kind.STORE:
            self._visit_store(index, instr)
            model.store(index, instr)
        elif kind is Kind.LOAD:
            model.load(instr)
        elif kind is Kind.CLWB or kind is Kind.CLFLUSHOPT:
            line = cache_line_of(instr.addr)
            self._visit_clwb(index, instr, line)
            model.flush(line)
        elif kind is Kind.SFENCE or kind is Kind.MFENCE:
            model.fence()
        elif kind is Kind.PCOMMIT:
            model.pcommit()
        elif kind is Kind.LOG_LOAD:
            self._visit_log_load(index, instr)
            model.log_load(index, instr)
        elif kind is Kind.LOG_FLUSH:
            self._visit_log_flush(index, instr)
            model.log_flush(index, instr)
        elif kind is Kind.TX_BEGIN:
            self._visit_tx_begin(index, instr)
            model.tx_begin(instr.txid)
        elif kind is Kind.TX_END:
            model.tx_end()
            self._visit_tx_end(index, instr)

    # -- stores ----------------------------------------------------------------

    def _visit_store(self, index: int, instr: Instruction) -> None:
        region = region_of(instr.addr, self.layout)
        if region != REGION_FLAG:
            self._check_flag_fenced(index, instr)
        if region == REGION_FLAG and self._logging == "software":
            self._visit_flag_store(index, instr)
        elif region == REGION_SWLOG:
            self._visit_sw_log_store(index, instr)
        elif region == REGION_DATA:
            self._visit_data_store(index, instr)

    def _visit_data_store(self, index: int, instr: Instruction) -> None:
        txid = instr.txid
        in_tx = self._active_txid is not None if self._tx_marks else txid != 0
        if not in_tx:
            self._report(
                "P004",
                index,
                f"store to persistent line {instr.line():#x} outside any "
                f"transaction",
                addr=instr.line(),
                txid=txid,
            )
            return
        for line in expand_lines(instr.addr, instr.size):
            self._tx_written[line] = index
        if self._logging == "software":
            self._check_sw_coverage(index, instr)
        elif self._logging == "sshl":
            self._check_sshl_coverage(index, instr)

    def _check_sw_coverage(self, index: int, instr: Instruction) -> None:
        for line in expand_lines(instr.addr, instr.size):
            entry = self._coverage_sw.get(line)
            if entry is None:
                self._pending.append(_PendingCoverage(index, line, instr.txid))
            elif not self._entry_durable(entry):
                self._report(
                    "P002",
                    index,
                    f"undo-log entry at slot {entry.slot:#x} for line "
                    f"{line:#x} is not durable before this data store",
                    addr=line,
                    txid=instr.txid,
                )

    def _check_sshl_coverage(self, index: int, instr: Instruction) -> None:
        for block in expand_log_blocks(instr.addr, instr.size):
            if block not in self._covered_blocks:
                self._pending.append(_PendingCoverage(index, block, instr.txid))

    # -- software logging ------------------------------------------------------

    def _slot_of(self, addr: int) -> int:
        base = self.layout.sw_log_base
        return base + ((addr - base) // SW_LOG_BYTES_PER_LINE) * SW_LOG_BYTES_PER_LINE

    def _visit_sw_log_store(self, index: int, instr: Instruction) -> None:
        slot = self._slot_of(instr.addr)
        entry = self._entries.get(slot)
        if entry is None or entry.txid != instr.txid:
            if entry is not None and entry.data_line in self._coverage_sw:
                # The circular log wrapped onto an older entry.
                del self._coverage_sw[entry.data_line]
            entry = SwLogEntry(slot=slot, txid=instr.txid)
            self._entries[slot] = entry
        entry.log_lines.add(cache_line_of(instr.addr))
        offset = instr.addr - slot
        is_header = instr.tag == "log-hdr" or (
            instr.value is not None and offset >= CACHE_LINE
        )
        if is_header and instr.value is not None:
            entry.data_line = cache_line_of(instr.value)
            self._coverage_sw[entry.data_line] = entry

    def _visit_flag_store(self, index: int, instr: Instruction) -> None:
        flag_line = cache_line_of(self.layout.logflag_addr)
        if (
            self._flag_store is not None
            and not self._flag_reported
            and not self.model.durable(flag_line)
        ):
            self._report(
                "P003",
                index,
                f"logFlag store at index {self._flag_store} is overwritten "
                f"before being fenced durable",
                addr=flag_line,
                txid=instr.txid,
            )
        if instr.value in (0, None):
            # Clearing the logFlag is the software commit point.
            self._commit_software(index)
        else:
            # Setting the logFlag declares this transaction's undo-log
            # entries valid: every one of them must already be durable,
            # or recovery could trust a flag whose log never persisted.
            for line in sorted(self._coverage_sw):
                entry = self._coverage_sw[line]
                if entry.txid == instr.txid and not self._entry_durable(entry):
                    self._report(
                        "P002",
                        index,
                        f"logFlag set for tx {instr.txid} while the undo-log "
                        f"entry at slot {entry.slot:#x} (covering line "
                        f"{line:#x}) is not yet durable",
                        addr=entry.slot,
                        txid=instr.txid,
                    )
        self._flag_store = index
        self._flag_reported = False

    def _check_flag_fenced(self, index: int, instr: Instruction) -> None:
        """P003: a logFlag transition must be fenced durable before any
        other persistent store executes."""
        if self._logging != "software":
            return
        if self._flag_store is None or self._flag_reported:
            return
        flag_line = cache_line_of(self.layout.logflag_addr)
        if not self.model.durable(flag_line):
            self._report(
                "P003",
                index,
                f"logFlag store at index {self._flag_store} is not fenced "
                f"durable before the store to {instr.line():#x}",
                addr=flag_line,
                txid=instr.txid,
            )
            self._flag_reported = True

    def _commit_software(self, index: int) -> None:
        self._check_commit_durability(index, self.model.durable_state)
        self._resolve_pending(
            index, lambda unit: self._coverage_sw.get(unit) is not None
        )
        self._coverage_sw.clear()
        self._tx_written.clear()

    # -- transactions (explicit marks) -----------------------------------------

    def _visit_tx_begin(self, index: int, instr: Instruction) -> None:
        if self._active_txid is not None:
            self._report(
                "P004",
                index,
                f"tx-begin {instr.txid} while transaction "
                f"{self._active_txid} (begun at index {self._active_begin}) "
                f"is still open",
                txid=instr.txid,
            )
        self._active_txid = instr.txid
        self._active_begin = index

    def _visit_tx_end(self, index: int, instr: Instruction) -> None:
        # The model has applied the tx-end: pending write-backs are
        # complete and, commit being the durability point, drained.
        if self._active_txid is None:
            self._report(
                "P004",
                index,
                f"tx-end {instr.txid} without a matching tx-begin",
                txid=instr.txid,
            )
        self._check_commit_durability(index, PersistState.FENCED)
        self._resolve_pending(index, lambda unit: unit in self._covered_blocks)
        for load_index, block in sorted(self._unflushed_loads.items()):
            self._report(
                "W102",
                load_index,
                f"log-load of block {block:#x} is never flushed; its "
                f"logging register dies with the transaction",
                addr=block,
                txid=instr.txid,
            )
        self._tx_written.clear()
        self._covered_blocks.clear()
        self._lr_blocks.clear()
        self._unflushed_loads.clear()
        self._active_txid = None
        self._active_begin = -1

    def _check_commit_durability(self, index: int, floor: PersistState) -> None:
        """P005: every line the transaction wrote must have reached
        ``floor`` by the commit point."""
        state = self.model.state
        for line, store_index in sorted(self._tx_written.items()):
            if state(line) < floor:
                self._report(
                    "P005",
                    index,
                    f"line {line:#x} stored at index {store_index} is not "
                    f"persisted by the commit point",
                    addr=line,
                    txid=self.trace[store_index].txid,
                )

    def _resolve_pending(self, index: int, covered_late: Callable[[int], bool]) -> None:
        """Turn deferred coverage misses into P001 or P002."""
        for pending in self._pending:
            if covered_late(pending.unit):
                self._report(
                    "P002",
                    pending.store_index,
                    f"undo coverage for {pending.unit:#x} is established "
                    f"only after the data store (resolved at commit index "
                    f"{index})",
                    addr=pending.unit,
                    txid=pending.txid,
                )
            else:
                self._report(
                    "P001",
                    pending.store_index,
                    f"transactional store to {pending.unit:#x} has no undo-"
                    f"log coverage anywhere in its transaction",
                    addr=pending.unit,
                    txid=pending.txid,
                )
        self._pending.clear()

    # -- flush-class instructions ----------------------------------------------

    def _visit_clwb(self, index: int, instr: Instruction, line: int) -> None:
        state = self.model.state(line)
        if state is not PersistState.DIRTY:
            self._report(
                "W101",
                index,
                f"redundant {instr.kind.value} of line {line:#x} "
                f"(state {state.name.lower()})",
                addr=line,
                txid=instr.txid,
            )

    # -- SSHL logging ----------------------------------------------------------

    def _visit_log_load(self, index: int, instr: Instruction) -> None:
        block = log_block_of(instr.addr)
        self._lr_blocks[index] = block
        self._unflushed_loads[index] = block

    def _visit_log_flush(self, index: int, instr: Instruction) -> None:
        block = log_block_of(instr.addr)
        source = instr.producer_index(index)
        producer = self._lr_blocks.get(source)
        if producer is None or producer != block:
            self._report(
                "P006",
                index,
                f"log-flush of block {block:#x} has no matching log-load "
                f"producer (dep={source})",
                addr=block,
                txid=instr.txid,
            )
            return
        self._unflushed_loads.pop(source, None)
        if block in self._covered_blocks:
            self._report(
                "W101",
                index,
                f"redundant log pair for block {block:#x}; already covered "
                f"at index {self._covered_blocks[block]} (LLT would squash "
                f"this)",
                addr=block,
                txid=instr.txid,
            )
        else:
            self._covered_blocks[block] = index

    # -- end of stream ---------------------------------------------------------

    def _finalize(self) -> None:
        end = len(self.trace)
        if self._active_txid is not None:
            self._report(
                "P004",
                self._active_begin,
                f"tx-begin {self._active_txid} is never closed by a tx-end",
                txid=self._active_txid,
            )
        if self._logging == "software":
            flag_line = cache_line_of(self.layout.logflag_addr)
            if (
                self._flag_store is not None
                and not self._flag_reported
                and not self.model.durable(flag_line)
            ):
                self._report(
                    "P003",
                    self._flag_store,
                    "logFlag store is never fenced durable",
                    addr=flag_line,
                )
            self._resolve_pending(
                end, lambda unit: self._coverage_sw.get(unit) is not None
            )
        else:
            self._resolve_pending(end, lambda unit: unit in self._covered_blocks)
        for load_index, block in sorted(self._unflushed_loads.items()):
            self._report(
                "W102",
                load_index,
                f"log-load of block {block:#x} is never flushed",
                addr=block,
            )
        floor = PersistState.PENDING if self._tx_marks else self.model.durable_state
        self._check_commit_durability(max(end - 1, 0), floor)
