"""Per-scheme code generation.

Lowers a workload's high-level :class:`~repro.isa.ops.OpTrace` into the
instruction stream one core executes.  This is the paper's compiler role:
the programmer writes ``tx-begin``/``tx-end`` around ordinary code, and
the compiler inserts whatever the logging scheme needs.

* **PMEM (software undo logging)** follows Figure 2's four steps, each
  separated by ``sfence`` (plus ``pcommit`` for the PMEM+pcommit
  variant): (1) copy every *log candidate* line into the software log and
  flush it, (2) set and flush the logFlag, (3) run the body and flush the
  written lines, (4) clear and flush the logFlag.  Conservative logging
  of candidates (not just actual writes) is exactly what makes software
  logging expensive on tree workloads.
* **PMEM+nolog** runs the body and flushes written lines (not failure
  safe; the ideal case).
* **ATOM** emits the plain body between ``tx-begin``/``tx-end``; logging
  happens in hardware at store retirement.
* **Proteus** expands every transactional store into
  ``log-load; log-flush; store`` (Figure 4); the LLT removes dynamic
  redundancy, so codegen does not need alias analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.schemes import Scheme
from repro.isa.instructions import (
    CACHE_LINE,
    Instruction,
    Kind,
    alu,
    clwb,
    expand_lines,
    expand_log_blocks,
    load,
    log_flush,
    log_load,
    pcommit,
    sfence,
    store,
    tx_begin,
    tx_end,
)
from repro.isa.ops import Op, OpKind, TxRecord
from repro.isa.trace import InstructionTrace, OpTrace

#: Bytes consumed in the software log per logged 64 B line: the 64 B
#: payload plus a header (log-from address, txid, length), rounded up to
#: whole cache lines.
SW_LOG_BYTES_PER_LINE = 2 * CACHE_LINE

#: 8-byte words copied per logged line by the software copy loop.
WORDS_PER_LINE = CACHE_LINE // 8


@dataclass
class ThreadLayout:
    """Per-thread address-space layout used by code generation.

    Attributes:
        sw_log_base / sw_log_size: the software undo log (circular).
        logflag_addr: the transaction-progress flag (Figure 2).
        hw_log_base / hw_log_size: the hardware log area whose slots the
            Proteus LTA / ATOM tracker hand out (managed by the scheme
            adapters, recorded here so the simulator can size them).
    """

    sw_log_base: int
    sw_log_size: int
    logflag_addr: int
    hw_log_base: int
    hw_log_size: int

    def validate(self) -> None:
        if self.sw_log_size < SW_LOG_BYTES_PER_LINE:
            raise ValueError("software log area too small for one entry")
        if self.sw_log_size % SW_LOG_BYTES_PER_LINE:
            raise ValueError("software log size must be a whole number of entries")
        # Every region must be cache-line aligned: a misaligned log base
        # would make each 2-line log entry straddle three lines, and the
        # SW_LOG_BYTES_PER_LINE accounting (and every flush in the
        # lowered stream) would silently under-persist.
        if self.sw_log_base % CACHE_LINE:
            raise ValueError(
                f"software log base {self.sw_log_base:#x} is not "
                f"cache-line aligned"
            )
        if self.hw_log_base % CACHE_LINE:
            raise ValueError(
                f"hardware log base {self.hw_log_base:#x} is not "
                f"cache-line aligned"
            )
        if self.logflag_addr % CACHE_LINE:
            raise ValueError(
                f"logFlag address {self.logflag_addr:#x} is not "
                f"cache-line aligned (its flush must cover exactly one line)"
            )
        sw_log_end = self.sw_log_base + self.sw_log_size
        if self.sw_log_base <= self.logflag_addr < sw_log_end:
            raise ValueError("logFlag must not live inside the software log area")


#: Regions of one thread's address-space slice, as :func:`region_of`
#: names them (persist-verify's reports print these names).
REGION_DATA = "data"
REGION_SWLOG = "swlog"
REGION_HWLOG = "hwlog"
REGION_FLAG = "flag"


def region_of(addr: int, layout: ThreadLayout) -> str:
    """Region of ``addr`` within the thread's slice."""
    line = addr & ~(CACHE_LINE - 1)
    if line == layout.logflag_addr & ~(CACHE_LINE - 1):
        return REGION_FLAG
    if layout.sw_log_base <= addr < layout.sw_log_base + layout.sw_log_size:
        return REGION_SWLOG
    if layout.hw_log_base <= addr < layout.hw_log_base + layout.hw_log_size:
        return REGION_HWLOG
    return REGION_DATA


class CodeGenerator:
    """Lowers one thread's OpTrace for one scheme."""

    def __init__(self, scheme: Scheme, layout: ThreadLayout, thread_id: int = 0) -> None:
        layout.validate()
        self.scheme = scheme
        self.layout = layout
        self.thread_id = thread_id
        self._sw_log_cursor = layout.sw_log_base

    # -- public API -------------------------------------------------------------

    @property
    def sw_log_cursor(self) -> int:
        """The next software-log slot address (circular)."""
        return self._sw_log_cursor

    @sw_log_cursor.setter
    def sw_log_cursor(self, value: int) -> None:
        base = self.layout.sw_log_base
        end = base + self.layout.sw_log_size
        if not base <= value <= end - SW_LOG_BYTES_PER_LINE:
            raise ValueError(
                f"software log cursor {value:#x} outside log area "
                f"[{base:#x}, {end:#x})"
            )
        if (value - base) % SW_LOG_BYTES_PER_LINE:
            raise ValueError(
                f"software log cursor {value:#x} is not slot aligned"
            )
        self._sw_log_cursor = value

    def alloc_sw_log_slots(self, tx: TxRecord) -> List[Tuple[int, int]]:
        """Take the software-log slots of one transaction.

        Returns ``(line, slot)`` pairs in copy order, one per *unique*
        candidate line: candidate ranges may overlap (two ranges
        covering one line), and each line is copied exactly once or the
        per-entry :data:`SW_LOG_BYTES_PER_LINE` accounting would
        double-count it and the circular log would wrap early.  The
        lowering and the fault tracker's slot map both take their slots
        here.
        """
        slots: List[Tuple[int, int]] = []
        copied: set = set()
        for base, size in tx.log_candidates:
            for line in expand_lines(base, size):
                if line in copied:
                    continue
                copied.add(line)
                slots.append((line, self._alloc_sw_log_slot()))
        return slots

    def lower_trace(self, op_trace: OpTrace) -> InstructionTrace:
        """Lower a whole per-thread trace."""
        out = InstructionTrace(thread_id=op_trace.thread_id)
        for item in op_trace.items:
            if isinstance(item, TxRecord):
                self.lower_transaction(item, out)
            else:
                self._lower_op(item, out, txid=0, last_load=-1)
        out.validate()
        return out

    def lower_transaction(self, tx: TxRecord, out: InstructionTrace) -> None:
        """Append one transaction's lowered instructions to ``out``, and
        its bounds to ``out.transactions``."""
        start = len(out.instructions)
        if self.scheme in (Scheme.PMEM, Scheme.PMEM_PCOMMIT):
            self._lower_software(tx, out)
        elif self.scheme is Scheme.PMEM_NOLOG:
            self._lower_nolog(tx, out)
        elif self.scheme is Scheme.PMEM_STRICT:
            self._lower_strict(tx, out)
        elif self.scheme is Scheme.ATOM:
            self._lower_hardware(tx, out, with_log_pairs=False)
        else:  # Proteus / Proteus+NoLWR
            self._lower_hardware(tx, out, with_log_pairs=True)
        # Only a few untagged instructions lie outside the bounds.
        ins, txid = out.instructions, tx.txid
        first = next((i for i in range(start, len(ins)) if ins[i].txid == txid), None)
        if txid > 0 and first is not None:
            last = next(i for i in range(len(ins) - 1, first - 1, -1) if ins[i].txid == txid)
            out.transactions.append((first, last))

    # -- body lowering shared by every scheme ---------------------------------------

    def _lower_op(
        self, op: Op, out: InstructionTrace, txid: int, last_load: int
    ) -> int:
        """Lower one body op; returns the index of the op's load (for
        pointer chaining) or ``last_load`` unchanged."""
        if op.kind is OpKind.COMPUTE:
            # Dependent chain: serial application logic; each ALU waits
            # on the one before it.  Deps are relative, so every link
            # after the head is one shared record, added as one run.
            if op.amount > 0:
                link = Instruction(Kind.ALU, latency=op.latency, dep=1, txid=txid)
                out.append(Instruction(Kind.ALU, latency=op.latency, txid=txid))
                out.append_run(link, op.amount - 1)
            return last_load
        if op.kind is OpKind.READ:
            index = len(out)
            dep = index - last_load if op.chained and last_load >= 0 else 0
            out.append(load(op.addr, size=op.size, dep=dep, txid=txid))
            return index
        # WRITE
        out.append(store(op.addr, size=op.size, value=op.value, txid=txid))
        return last_load

    def _lower_body(self, tx: TxRecord, out: InstructionTrace) -> None:
        last_load = -1
        for op in tx.body:
            last_load = self._lower_op(op, out, txid=tx.txid, last_load=last_load)

    def _lower_body_with_log_pairs(self, tx: TxRecord, out: InstructionTrace) -> None:
        """Proteus body: every store is preceded by its logging pair.

        A store spanning multiple 32 B blocks (e.g. string swap writes)
        gets one pair per block.  Redundant pairs to recently-logged
        blocks are emitted anyway — filtering them is the LLT's job.
        """
        last_load = -1
        for op in tx.body:
            if op.kind is not OpKind.WRITE:
                last_load = self._lower_op(op, out, txid=tx.txid, last_load=last_load)
                continue
            for block in expand_log_blocks(op.addr, op.size):
                out.append(log_load(block, txid=tx.txid))
                out.append(log_flush(block, txid=tx.txid, dep=1))
            out.append(store(op.addr, size=op.size, value=op.value, txid=tx.txid))

    def _flush_written_lines(self, tx: TxRecord, out: InstructionTrace) -> None:
        for line in tx.written_lines():
            out.append(clwb(line, txid=tx.txid))

    def _persist_barrier(self, out: InstructionTrace) -> None:
        out.append(sfence())
        if self.scheme.uses_pcommit:
            out.append(pcommit())

    # -- scheme-specific transaction shapes ----------------------------------------------

    def _lower_nolog(self, tx: TxRecord, out: InstructionTrace) -> None:
        self._lower_body(tx, out)
        self._flush_written_lines(tx, out)
        self._persist_barrier(out)

    def _lower_strict(self, tx: TxRecord, out: InstructionTrace) -> None:
        """Strict persistency (section 2.1): every store is followed by
        ``clwb; sfence``, so persists happen in program order.  No
        logging — the ablation shows the ordering cost alone."""
        last_load = -1
        for op in tx.body:
            if op.kind is not OpKind.WRITE:
                last_load = self._lower_op(op, out, txid=tx.txid, last_load=last_load)
                continue
            out.append(store(op.addr, size=op.size, value=op.value, txid=tx.txid))
            for line in expand_lines(op.addr, op.size):
                out.append(clwb(line, txid=tx.txid))
            out.append(sfence())

    def _lower_hardware(
        self, tx: TxRecord, out: InstructionTrace, with_log_pairs: bool
    ) -> None:
        out.append(tx_begin(tx.txid))
        if with_log_pairs:
            self._lower_body_with_log_pairs(tx, out)
        else:
            self._lower_body(tx, out)
        self._flush_written_lines(tx, out)
        out.append(tx_end(tx.txid))

    def _lower_software(self, tx: TxRecord, out: InstructionTrace) -> None:
        # Step 1: copy every candidate line into the log and persist it.
        log_lines: List[int] = []
        for line, slot in self.alloc_sw_log_slots(tx):
            log_lines.extend(self._emit_sw_log_copy(line, slot, tx.txid, out))
        assert len(log_lines) == len(set(log_lines)), (
            "software log slots must be distinct per transaction"
        )
        for line in log_lines:
            out.append(clwb(line, txid=tx.txid, tag="log"))
        self._persist_barrier(out)

        # Step 2: set the logFlag and persist it.
        out.append(store(self.layout.logflag_addr, value=tx.txid, txid=tx.txid, tag="logflag"))
        out.append(clwb(self.layout.logflag_addr, txid=tx.txid, tag="logflag"))
        self._persist_barrier(out)

        # Step 3: the body, then persist the written lines.
        self._lower_body(tx, out)
        self._flush_written_lines(tx, out)
        self._persist_barrier(out)

        # Step 4: clear the logFlag and persist it.
        out.append(store(self.layout.logflag_addr, value=0, txid=tx.txid, tag="logflag"))
        out.append(clwb(self.layout.logflag_addr, txid=tx.txid, tag="logflag"))
        self._persist_barrier(out)

    def _emit_sw_log_copy(
        self, line: int, slot: int, txid: int, out: InstructionTrace
    ) -> List[int]:
        """Copy one 64 B line into its software-log slot; returns the log
        lines that must be flushed."""
        assert line % CACHE_LINE == 0, f"log candidate {line:#x} is not line aligned"
        assert slot % CACHE_LINE == 0, f"log slot {slot:#x} is not line aligned"
        out.append(alu(tag="log-addr-calc"))
        for word in range(WORDS_PER_LINE):
            out.append(load(line + 8 * word, txid=txid, tag="log-copy"))
            out.append(
                store(slot + 8 * word, txid=txid, tag="log-copy", value=None)
            )
        # Header: log-from address, txid, length.
        out.append(store(slot + CACHE_LINE, value=line, txid=txid, tag="log-hdr"))
        return [slot, slot + CACHE_LINE]

    def _alloc_sw_log_slot(self) -> int:
        slot = self._sw_log_cursor
        assert (
            self.layout.sw_log_base
            <= slot
            <= self.layout.sw_log_base + self.layout.sw_log_size - SW_LOG_BYTES_PER_LINE
        ), f"software log cursor {slot:#x} escaped the log area"
        self._sw_log_cursor += SW_LOG_BYTES_PER_LINE
        if self._sw_log_cursor >= self.layout.sw_log_base + self.layout.sw_log_size:
            self._sw_log_cursor = self.layout.sw_log_base
        return slot
