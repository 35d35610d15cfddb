"""Memory controller.

Owns the read path, the WPQ (ADR persistency domain), and — when a
Proteus scheme attaches one — the LPQ for log-only writes.  Drain policy:

* WPQ entries are dispatched to the device whenever the device-side write
  backlog is below one queued write per bank (keeps writes flowing but
  bounds buffering at the device).
* LPQ entries are dispatched only under occupancy pressure (above the
  high watermark) or on an explicit flush (context switch); otherwise log
  entries sit in the LPQ waiting to be flash cleared at transaction end.
  The arbiter always prefers WPQ over LPQ (paper section 4.3).

Reads check the WPQ for a match (forwarding) but never the LPQ — logs
are not read again except during failure recovery.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.mem.nvm import NvmDevice, NvmRequest
from repro.mem.wpq import PendingQueue, QueueEntry
from repro.obs.tracer import NULL_TRACER, TID_MC, Tracer
from repro.sim.config import MemoryConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats

#: LPQ occupancy fraction above which log entries spill to the device.
LPQ_HIGH_WATERMARK = 0.75


class MemoryController:
    """The single memory controller shared by all cores."""

    def __init__(
        self,
        engine: Engine,
        config: MemoryConfig,
        stats: Stats,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.device = NvmDevice(engine, config, stats, tracer=self.tracer)
        self.device.on_state_change = self._check_drained
        self.wpq = PendingQueue(
            engine, stats, config.wpq_entries, "wpq", tracer=self.tracer
        )
        self.lpq: Optional[PendingQueue] = None
        #: when False (Proteus+NoLWR with an LPQ), flash clear is disabled
        #: and every log entry eventually drains to NVM.
        self.log_write_removal = True
        self._writes_in_device = 0
        #: writes parked in a stuck-bank retry loop (fault injection)
        self._writes_retrying = 0
        self._drain_waiters: List[Callable[[], None]] = []
        self._log_regions: List[Tuple[int, int]] = []
        #: optional fault-injection hooks (see ``repro.faults.harness``):
        #: ``filter_admission(entry)`` may swallow a write at admission,
        #: ``filter_drain(queue, entry)`` may drop/defer/tear a drain,
        #: ``stuck_delay(addr, attempt)`` models stuck NVM banks, and
        #: ``on_flash_clear(thread, txid, dropped)`` observes LPQ clears.
        self.fault_hooks = None

    # -- configuration -------------------------------------------------------

    def attach_lpq(self, entries: int, log_write_removal: bool = True) -> None:
        """Add a Proteus LPQ of the given size."""
        self.lpq = PendingQueue(
            self.engine, self.stats, entries, "lpq", tracer=self.tracer
        )
        self.log_write_removal = log_write_removal

    def register_log_region(self, base: int, size: int) -> None:
        """Classify writebacks to ``[base, base+size)`` as software log traffic.

        Idempotent: re-registering the same region (segmented runs rebuild
        cores against the same controller) is a no-op.
        """
        region = (base, base + size)
        if region not in self._log_regions:
            self._log_regions.append(region)

    def _classify(self, addr: int, category: str) -> str:
        if category == "data":
            for start, end in self._log_regions:
                if start <= addr < end:
                    return "log-sw"
        return category

    # -- read path -------------------------------------------------------------

    def read(self, addr: int, callback: Callable[[], None]) -> None:
        """Read a line; forwards from the WPQ on a match."""
        line = addr & ~63

        def after_controller() -> None:
            if self.wpq.contains_line(line):
                self.stats.add("mc.read_forwarded_from_wpq")
                if self.tracer.enabled:
                    self.tracer.instant("mem", "read-forward", tid=TID_MC, addr=line)
                callback()
                return
            self.device.submit(NvmRequest(line, is_write=False, callback=callback))

        self.engine.schedule(self.config.controller_latency, after_controller)

    # -- write path --------------------------------------------------------------

    def write(
        self,
        addr: int,
        category: str = "data",
        thread_id: int = -1,
        txid: int = 0,
        on_durable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Submit a line write; ``on_durable`` fires at WPQ admission (ADR)."""
        entry = QueueEntry(
            addr & ~63,
            category=self._classify(addr, category),
            thread_id=thread_id,
            txid=txid,
        )

        def after_controller() -> None:
            if self._admission_dropped(entry, on_durable):
                return
            self.wpq.submit(entry, on_durable)
            self._pump_wpq()

        self.engine.schedule(self.config.controller_latency, after_controller)

    def _admission_dropped(
        self, entry: QueueEntry, on_durable: Optional[Callable[[], None]]
    ) -> bool:
        """Injected fault: the controller loses a write while still
        acknowledging it — the machine believes the write is durable.

        This is how a log-before-data violation is manufactured: the
        pipeline proceeds past the fence/ack as normal, but the durable
        state never received the write.
        """
        hooks = self.fault_hooks
        if hooks is None or not hooks.filter_admission(entry):
            return False
        self.stats.add("faults.admission_drops")
        if on_durable is not None:
            self.engine.schedule(0, on_durable)
        return True

    def submit_log(
        self,
        addr: int,
        thread_id: int,
        txid: int,
        on_durable: Optional[Callable[[], None]] = None,
        category: str = "log",
    ) -> None:
        """Submit a hardware log-entry write.

        Routed to the LPQ when one is attached (Proteus), otherwise to the
        WPQ.  ``on_durable`` fires at admission — the queue is in the
        persistency domain either way.
        """
        entry = QueueEntry(addr & ~63, category=category, thread_id=thread_id, txid=txid)

        def after_controller() -> None:
            if self._admission_dropped(entry, on_durable):
                return
            if self.lpq is not None:
                # The first entry of a new transaction retires the sticky
                # end-mark of the thread's previous transaction.
                self.lpq.drop_stale_sticky(thread_id, txid)
                self.lpq.submit(entry, on_durable)
                self._pump_lpq()
            else:
                self.wpq.submit(entry, on_durable)
                self._pump_wpq()

        self.engine.schedule(self.config.controller_latency, after_controller)

    def flash_clear(self, thread_id: int, txid: int) -> int:
        """Drop pending log entries of a committed transaction (Proteus).

        Returns the number of entries dropped; no-op without LPQ or when
        log write removal is disabled (Proteus+NoLWR).
        """
        if self.lpq is None or not self.log_write_removal:
            return 0
        dropped = self.lpq.flash_clear(thread_id, txid, keep_last=True)
        if self.fault_hooks is not None:
            self.fault_hooks.on_flash_clear(thread_id, txid, dropped)
        return dropped

    def flush_logs(self, thread_id: Optional[int] = None) -> None:
        """Force LPQ entries to NVM (context switch / shutdown path)."""
        if self.lpq is None:
            return
        remaining = [
            entry
            for entry in list(self.lpq.entries)
            if thread_id is None or entry.thread_id == thread_id
        ]
        for entry in remaining:
            self.lpq.entries.remove(entry)
            if self.tracer.enabled:
                self.tracer.instant(
                    "queue", "lpq.drain", tid=TID_MC, addr=entry.addr,
                    txid=entry.txid, reason="flush-logs",
                )
            self._dispatch_write(entry)
        self.lpq._refill_from_admission()

    # -- direct device access (ATOM truncation scan) ----------------------------

    def device_read(self, addr: int, callback: Optional[Callable[[], None]] = None) -> None:
        """Read that bypasses forwarding (log-area scan)."""
        self.device.submit(NvmRequest(addr & ~63, is_write=False, callback=callback))

    # -- persistence barrier (pcommit) --------------------------------------------

    def persistent_writes_pending(self) -> bool:
        """True while writes are queued at the controller or the device.

        pcommit semantics: a write is durable once an NVMM bank has begun
        servicing it (the device's internal buffer); the drain therefore
        waits out queueing but not the final array-write latency.
        """
        return (
            not self.wpq.is_empty()
            or self.device.outstanding_writes() > 0
            or self._writes_retrying > 0
        )

    def all_writes_retired(self) -> bool:
        """True once every write has completed at the NVM array (used by
        the end-of-simulation drain)."""
        return (
            self.wpq.is_empty()
            and self._writes_in_device == 0
            and self._writes_retrying == 0
        )

    def drain_pending(self) -> bool:
        """True while the end-of-simulation drain still has work to do.

        Everything :meth:`persistent_writes_pending` covers, plus — under
        Proteus+NoLWR, where flash clear is disabled — LPQ entries that
        must still reach NVM.  (A regular Proteus LPQ is deliberately
        *not* included: its surviving entries belong to committed
        transactions and would have been flash cleared.)
        """
        if self.persistent_writes_pending():
            return True
        if self.lpq is not None and not self.log_write_removal:
            return not self.lpq.is_empty()
        return False

    def notify_when_persistent(self, callback: Callable[[], None]) -> None:
        """Fire ``callback`` once every accepted write is in NVM (pcommit)."""
        if not self.persistent_writes_pending():
            self.engine.schedule(0, callback)
        else:
            self._drain_waiters.append(callback)

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable controller-side state (queues + device).

        Only valid at a quiescent point: in-flight dispatches and pcommit
        waiters hold live callbacks that cannot be serialized.
        """
        if self._writes_in_device or self._writes_retrying:
            raise RuntimeError("cannot serialize with writes in flight")
        if self._drain_waiters:
            raise RuntimeError("cannot serialize with pcommit waiters pending")
        return {
            "wpq": self.wpq.state_dict(),
            "lpq": self.lpq.state_dict() if self.lpq is not None else None,
            "nvm": self.device.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore queue and device state from :meth:`state_dict` output."""
        lpq_state = state["lpq"]
        if (lpq_state is None) != (self.lpq is None):
            raise ValueError(
                "snapshot LPQ presence does not match this controller's "
                "configuration"
            )
        self.wpq.load_state(state["wpq"])
        if self.lpq is not None and lpq_state is not None:
            self.lpq.load_state(lpq_state)
        self.device.load_state(state["nvm"])
        self._writes_in_device = 0
        self._writes_retrying = 0
        self._drain_waiters = []

    # -- drain pumps -----------------------------------------------------------------

    def pump(self) -> None:
        """Dispatch whatever the drain policy allows right now.

        The public re-pump hook: both queues are offered to the device,
        WPQ first (the arbiter's preference).  Policy is unchanged — a
        Proteus LPQ still holds entries below its watermark — so calling
        this is always safe; it only matters when a queue idled with
        entries after the device went quiet (the end-of-simulation drain
        relies on it).
        """
        self._pump_wpq()
        self._pump_lpq()

    def _dispatch_write(self, entry: QueueEntry, attempt: int = 0) -> None:
        hooks = self.fault_hooks
        if hooks is not None:
            # Stuck-bank fault: the dispatch fails and the controller
            # backs off with a bounded retry (durability is preserved —
            # the write is merely delayed, and it still counts as pending
            # for fences and the final drain).
            delay = hooks.stuck_delay(entry.addr, attempt)
            if delay > 0:
                self.stats.add("faults.stuck_retries")
                self._writes_retrying += 1

                def retry() -> None:
                    self._writes_retrying -= 1
                    self._dispatch_write(entry, attempt + 1)

                self.engine.schedule(delay, retry)
                return
        self._writes_in_device += 1

        def finished() -> None:
            self._writes_in_device -= 1
            self._pump_wpq()
            self._pump_lpq()
            self._check_drained()

        self.device.submit(
            NvmRequest(entry.addr, is_write=True, category=entry.category, callback=finished)
        )

    def _drain_faulted(self, queue: PendingQueue, entry: QueueEntry) -> bool:
        """Apply an injected drain fault; True when the entry must not be
        dispatched this round (dropped, or deferred to the queue tail)."""
        hooks = self.fault_hooks
        if hooks is None:
            return False
        verdict = hooks.filter_drain(queue.name, entry)
        if verdict == "drop":
            self.stats.add(f"faults.{queue.name}.dropped_drains")
            return True
        if verdict == "defer":
            self.stats.add(f"faults.{queue.name}.deferred_drains")
            queue.entries.append(entry)
            return True
        # "torn" writes still dispatch; the harness records the torn words.
        return False

    def _pump_wpq(self) -> None:
        backlog_limit = self.config.banks
        while (
            self.wpq.occupancy()
            and self.device.outstanding_writes() < backlog_limit
        ):
            entry = self.wpq.pop_for_drain()
            if entry is None:
                break
            if self._drain_faulted(self.wpq, entry):
                continue
            self._dispatch_write(entry)
        self._check_drained()

    def _pump_lpq(self) -> None:
        if self.lpq is None:
            return
        watermark = (
            int(self.lpq.capacity * LPQ_HIGH_WATERMARK)
            if self.log_write_removal
            else 0
        )
        backlog_limit = self.config.banks
        # The arbiter prefers the WPQ; logs drain when regular write
        # pressure is low — but once the LPQ itself is under pressure
        # (above the watermark plus blocked admissions) it must not be
        # starved, or log-flush acknowledgments would back up through a
        # full LogQ into dispatch stalls.
        wpq_low = max(1, self.config.banks // 4)
        pressure = self.lpq.occupancy() + self.lpq.waiting_admission()
        lpq_urgent = pressure > watermark and self.lpq.waiting_admission() > 0
        while (
            self.lpq.occupancy() + self.lpq.waiting_admission() > watermark
            and (lpq_urgent or self.wpq.occupancy() < wpq_low)
            and self.device.outstanding_writes() < backlog_limit
        ):
            entry = self.lpq.pop_for_drain(skip_sticky=True)
            if entry is None:
                entry = self.lpq.pop_oldest()
            if entry is None:
                break
            if self._drain_faulted(self.lpq, entry):
                continue
            self._dispatch_write(entry)

    def _check_drained(self) -> None:
        if self._drain_waiters and not self.persistent_writes_pending():
            waiters, self._drain_waiters = self._drain_waiters, []
            for callback in waiters:
                callback()
