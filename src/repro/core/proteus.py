"""Core-side Proteus engine (paper sections 3 and 4).

Ties the LR file, LogQ, LLT and per-thread log area to the pipeline:

* ``log-load`` allocates an LR at dispatch (stall on none free), probes
  the LLT at execute — a hit completes the pair immediately with no
  memory traffic — and otherwise reads the 32 B block through the cache.
* ``log-flush`` allocates a LogQ entry at dispatch (stall when full, so
  no younger store can slip past), resolves its log-to address from the
  LTA strictly in program order, then flushes to the memory controller
  concurrently with other pending flushes; it completes at the MC
  acknowledgment (WPQ/LPQ admission — the persistency domain).
* a retired store to a 32 B block with an older pending flush is held in
  the store buffer (log-before-data).
* ``tx-end`` retires only when the LogQ is empty (on top of the core's
  fence conditions), then clears the LLT and flash clears the LPQ.
* ``log-save`` implements the context-switch spill (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.llt import LogLookupTable
from repro.core.log_area import LogArea
from repro.core.log_registers import LogRegisterFile
from repro.core.logq import LogQEntry, LogQueue
from repro.cpu.adapter import LoggingAdapter
from repro.cpu.ooo_core import DynInstr
from repro.isa.instructions import Kind
from repro.mem.memctrl import MemoryController
from repro.sim.config import ProteusConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


@dataclass
class _LoadInfo:
    """What a log-flush needs to know about its producing log-load."""

    lr: int
    llt_hit: bool


class ProteusAdapter(LoggingAdapter):
    """Scheme adapter implementing Proteus logging for one core."""

    def __init__(
        self,
        engine: Engine,
        config: ProteusConfig,
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
        self.lrs = LogRegisterFile(config.log_registers)
        self.logq = LogQueue(config.logq_entries, stats)
        self.llt = LogLookupTable(config.llt_entries, config.llt_ways, stats)
        self.current_txid = 0
        self._loads: Dict[int, _LoadInfo] = {}
        self._awaiting_resolution: List[DynInstr] = []
        #: optional fault-injection hooks: ``on_log_resolved(core, seq,
        #: log_to)`` at LTA assignment.
        self.fault_hooks = None

    # -- dispatch --------------------------------------------------------------

    def dispatch_blocked(self, dyn: DynInstr) -> Optional[str]:
        kind = dyn.instr.kind
        if kind is Kind.LOG_LOAD:
            register = self.lrs.allocate(dyn.seq)
            if register is None:
                return "lr"
            dyn.lr = register
            # The LLT is probed in program order at dispatch; probing at
            # out-of-order execute could leak filter state across the
            # (also in-order) tx-end clear.
            dyn.llt_hit = self.llt.lookup_insert(dyn.instr.addr)
            return None
        if kind is Kind.LOG_FLUSH:
            entry = self.logq.allocate(dyn.seq, dyn.instr.addr, dyn.instr.txid)
            if entry is None:
                return "logq"
            dyn.logq_entry = entry
            return None
        if kind is Kind.TX_END:
            # Clear the filter in program order with the probes above.
            self.llt.clear()
        return None

    # -- execution -----------------------------------------------------------------

    def start_execute(self, dyn: DynInstr) -> bool:
        kind = dyn.instr.kind
        if kind is Kind.LOG_LOAD:
            self._execute_log_load(dyn)
            return True
        if kind is Kind.LOG_FLUSH:
            self._execute_log_flush(dyn)
            return True
        return False

    def _execute_log_load(self, dyn: DynInstr) -> None:
        core = self.core
        self._loads[dyn.seq] = _LoadInfo(lr=dyn.lr, llt_hit=dyn.llt_hit)
        if dyn.llt_hit:
            core.complete_after(dyn, 1)
            return
        core.hierarchy.access(
            self.core_id,
            dyn.instr.addr,
            is_write=False,
            on_complete=lambda: core.complete_after(dyn, 0),
        )

    def _execute_log_flush(self, dyn: DynInstr) -> None:
        # The flush has consumed the LR value; the register is dead and
        # can be reallocated (the paper sizes the LR file so it never
        # causes a structural hazard).
        producer = self._loads.pop(dyn.instr.producer_index(dyn.seq), None)
        if producer is not None:
            self.lrs.release(producer.lr)
        if producer is not None and producer.llt_hit:
            dyn.llt_hit = True
            self.logq.cancel(dyn.logq_entry)
            self.stats.add("proteus.flushes_filtered")
            if self.tracer.enabled:
                self.tracer.instant(
                    "log", "llt-squash", tid=self.core_id, seq=dyn.seq,
                    block=dyn.instr.addr, txid=dyn.instr.txid,
                )
            self.core.complete_after(dyn, 1)
            return
        self._try_resolve(dyn)

    def _try_resolve(self, dyn: DynInstr) -> None:
        if not self._resolve_one(dyn):
            if dyn not in self._awaiting_resolution:
                self._awaiting_resolution.append(dyn)
            return
        self._wake_resolution_waiters()

    def _resolve_one(self, dyn: DynInstr) -> bool:
        """Assign a log-to address and issue the flush; False when older
        flushes have not resolved yet (program-order constraint)."""
        entry: LogQEntry = dyn.logq_entry
        if not self.logq.can_resolve(entry):
            return False
        log_to = self.log_area.next_slot()
        self.logq.resolve(entry, log_to)
        self.stats.add("proteus.flushes_issued")
        if self.tracer.enabled:
            self.tracer.instant(
                "log", "flush-issue", tid=self.core_id, seq=dyn.seq,
                log_from=entry.log_from, log_to=log_to, txid=entry.txid,
            )
        if self.fault_hooks is not None:
            self.fault_hooks.on_log_resolved(self.core_id, dyn.seq, log_to)
        self.memctrl.submit_log(
            log_to,
            thread_id=self.core_id,
            txid=entry.txid,
            on_durable=lambda: self._flush_acked(dyn),
        )
        return True

    def _wake_resolution_waiters(self) -> None:
        # Resolving one flush can unblock younger ones; iterate until no
        # waiter is eligible.  Waiters resolve in program (seq) order.
        made_progress = True
        while made_progress:
            made_progress = False
            for dyn in sorted(self._awaiting_resolution, key=lambda d: d.seq):
                if self._resolve_one(dyn):
                    self._awaiting_resolution.remove(dyn)
                    made_progress = True
                    break

    def _flush_acked(self, dyn: DynInstr) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "log", "flush-ack", tid=self.core_id, seq=dyn.seq,
                log_to=dyn.logq_entry.log_to, txid=dyn.logq_entry.txid,
            )
        self.logq.complete(dyn.logq_entry)
        self.core.complete_after(dyn, 0)

    # -- retirement -------------------------------------------------------------------

    def retire_blocked(self, dyn: DynInstr) -> bool:
        kind = dyn.instr.kind
        if kind in (Kind.TX_END, Kind.LOG_SAVE):
            return not self.logq.is_empty()
        return False

    def on_retire(self, dyn: DynInstr) -> None:
        kind = dyn.instr.kind
        if kind is Kind.TX_BEGIN:
            self.current_txid = dyn.instr.txid
            self.log_area.begin_transaction()
            self.stats.add("tx.begun")
        elif kind is Kind.TX_END:
            # (The LLT was already cleared in program order at dispatch.)
            dropped = self.memctrl.flash_clear(self.core_id, dyn.instr.txid)
            self.log_area.end_transaction()
            self.current_txid = 0
            self.stats.add("tx.committed")
            if self.tracer.enabled:
                self.tracer.instant(
                    "log", "flash-clear", tid=self.core_id,
                    txid=dyn.instr.txid, dropped=dropped,
                )
        elif kind is Kind.LOG_SAVE:
            # Context switch: spill LRs, clear the LLT so another thread
            # cannot consume stale filter state, and force this thread's
            # pending log entries out to NVM.
            self.lrs.release_all()
            self._loads.clear()
            self.llt.clear()
            self.memctrl.flush_logs(self.core_id)
            self.stats.add("proteus.log_saves")
            if self.tracer.enabled:
                self.tracer.instant("log", "log-save", tid=self.core_id)

    # -- store ordering ----------------------------------------------------------------

    def store_release_blocked(self, addr: int, seq: int) -> bool:
        return self.logq.blocks_store(addr, seq)

    def quiesced(self) -> bool:
        return self.logq.is_empty() and not self._awaiting_resolution
