"""ATOM baseline — hardware undo logging at store retirement.

Implements the best-performing ATOM configuration the paper compares
against (section 5.1), including both published optimizations:

* **Source log**: the log entry is fabricated at the memory controller
  (no cache read on the critical path), modeled as a fixed MC-side
  creation latency before the entry enters the WPQ.
* **Posted log**: the store may retire as soon as the MC acknowledges
  receipt of the log entry (the MC locks the line until the log entry is
  durable; under ADR, admission *is* durability).

The defining constraint relative to Proteus: the log entry for a store is
created when the store is about to retire, one at a time, and the store's
retirement is delayed until the acknowledgment — serialized logging that
backs up the ROB (the paper's Figure 7 front-end stall analysis).

ATOM deduplicates within a transaction (one log entry per line per
transaction) but has no log write removal: every log entry is written to
NVM, and at commit each entry must be invalidated — entries tracked by
the MC's finite tracker cost one NVM write each; entries beyond the
tracker must be found by scanning the log area (one read plus one write
each).  This is the source of ATOM's ~3.4x write amplification.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.log_area import LogArea
from repro.cpu.adapter import LoggingAdapter
from repro.cpu.ooo_core import DynInstr
from repro.isa.instructions import Kind
from repro.mem.memctrl import MemoryController
from repro.sim.config import AtomConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class AtomAdapter(LoggingAdapter):
    """Scheme adapter implementing ATOM hardware logging for one core."""

    def __init__(
        self,
        engine: Engine,
        config: AtomConfig,
        memctrl: MemoryController,
        log_area: LogArea,
        stats: Stats,
        core_id: int,
    ) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.log_area = log_area
        self.stats = stats
        self.core_id = core_id
        self.current_txid = 0
        self._logged_lines: Set[int] = set()
        self._log_slots: List[int] = []
        self._request_outstanding = False
        #: optional fault-injection hooks (same interface as the Proteus
        #: adapter's): log-slot assignment.
        self.fault_hooks = None

    # -- retirement-time logging ------------------------------------------------

    def retire_blocked(self, dyn: DynInstr) -> bool:
        instr = dyn.instr
        if instr.kind is not Kind.STORE or instr.txid == 0:
            return False
        line = instr.line()
        if line in self._logged_lines:
            return False
        if dyn.log_acked:
            # Ack raced with a second retire attempt; line recorded below.
            self._logged_lines.add(line)
            return False
        if not self._request_outstanding:
            self._request_outstanding = True
            self.stats.add("atom.log_entries")
            slot = self.log_area.next_slot()
            self._log_slots.append(slot)
            self.engine.schedule(
                self.config.source_log_latency,
                lambda: self._send_log(dyn, line, slot),
            )
        return True

    def _send_log(self, dyn: DynInstr, line: int, slot: int) -> None:
        if self.fault_hooks is not None:
            self.fault_hooks.on_log_resolved(self.core_id, dyn.seq, slot)
        if self.tracer.enabled:
            self.tracer.instant(
                "log", "atom-log", tid=self.core_id, seq=dyn.seq,
                log_from=line, log_to=slot, txid=self.current_txid,
            )
        self.memctrl.submit_log(
            slot,
            thread_id=self.core_id,
            txid=self.current_txid,
            on_durable=lambda: self._log_acked(dyn, line, slot),
        )

    def _log_acked(self, dyn: DynInstr, line: int, slot: int) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "log", "atom-ack", tid=self.core_id, seq=dyn.seq,
                log_to=slot, txid=self.current_txid,
            )
        dyn.log_acked = True
        self._logged_lines.add(line)
        self._request_outstanding = False

    # -- transaction boundaries -----------------------------------------------------

    def on_retire(self, dyn: DynInstr) -> None:
        kind = dyn.instr.kind
        if kind is Kind.TX_BEGIN:
            self.current_txid = dyn.instr.txid
            self._logged_lines.clear()
            self._log_slots.clear()
            self.log_area.begin_transaction()
            self.stats.add("tx.begun")
        elif kind is Kind.TX_END:
            self._truncate_log()
            self._logged_lines.clear()
            self._log_slots.clear()
            self.log_area.end_transaction()
            self.current_txid = 0
            self.stats.add("tx.committed")

    def _truncate_log(self) -> None:
        """Commit-time log invalidation (posted; does not block tx-end).

        The first ``tracker_entries`` entries are invalidated directly;
        the remainder require a log-area scan — a read plus a write per
        entry.
        """
        tracked = self._log_slots[: self.config.tracker_entries]
        untracked = self._log_slots[self.config.tracker_entries:]
        if self.tracer.enabled and self._log_slots:
            self.tracer.instant(
                "log", "truncate", tid=self.core_id, txid=self.current_txid,
                entries=len(self._log_slots), scans=len(untracked),
            )
        for slot in tracked:
            self.stats.add("atom.truncation_writes")
            self.memctrl.write(
                slot,
                category="log-truncate",
                thread_id=self.core_id,
                txid=self.current_txid,
            )
        for slot in untracked:
            self.stats.add("atom.truncation_scans")
            self.memctrl.device_read(slot)
            self.memctrl.write(
                slot,
                category="log-truncate",
                thread_id=self.core_id,
                txid=self.current_txid,
            )

    def quiesced(self) -> bool:
        return not self._request_outstanding
