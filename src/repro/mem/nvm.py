"""NVM / DRAM device model.

The device has ``banks`` independent banks, each with a one-entry row
buffer and a FIFO of outstanding requests (reads are inserted ahead of
queued writes — read-priority scheduling, standard for memory
controllers and important here because long NVM writes would otherwise
starve reads).  Service latency is ``read_latency`` or ``write_latency``
from :class:`~repro.sim.config.MemoryConfig`; a row-buffer hit shaves the
array access, modeled as a 40% latency reduction.

The device also keeps the *functional* NVM write counters the paper's
Figure 8 reports, keyed by write category (``data``, ``log``,
``log-truncate``, ``logflag`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs.tracer import NULL_TRACER, TID_NVM_BASE, Tracer
from repro.sim.config import MemoryConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats

#: Address bits that select a row (2 KB row buffer, Table 1).
ROW_SHIFT = 11



@dataclass
class NvmRequest:
    """One device-level request.

    ``callback`` fires when the device finishes servicing the request.
    ``category`` labels writes for the endurance accounting.
    """

    addr: int
    is_write: bool
    category: str = "data"
    callback: Optional[Callable[[], None]] = None


class _Bank:
    """One device bank: an open row and a FIFO of requests."""

    __slots__ = ("open_row", "queue", "busy")

    def __init__(self) -> None:
        self.open_row: int = -1
        self.queue: List[NvmRequest] = []
        self.busy: bool = False


class NvmDevice:
    """Bank-parallel NVM/DRAM device with read-priority scheduling."""

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
        self._banks = [_Bank() for _ in range(config.banks)]
        #: writes queued at the banks, not counting those in service
        self._queued_writes = 0
        self._drain_callbacks: List[Callable[[], None]] = []
        #: optional hook fired after every request completion; the memory
        #: controller uses it to re-evaluate pcommit drain waiters.
        self.on_state_change: Optional[Callable[[], None]] = None
        #: optional fault-injection observer with ``on_nvm_write(request)``,
        #: fired when a write completes at the array (crash reporting).
        self.observer = None

    # -- public interface --------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Bank index for an address.

        Standard DDR row|bank|column mapping: consecutive cache lines
        share a row (32 lines per 2 KB row), and consecutive rows rotate
        across banks — sequential streams get long row-hit bursts while
        independent streams land on different banks.
        """
        return (addr >> ROW_SHIFT) % len(self._banks)

    def submit(self, request: NvmRequest) -> None:
        """Queue a request; reads jump ahead of queued writes."""
        bank = self._banks[self.bank_of(request.addr)]
        if request.is_write:
            bank.queue.append(request)
            self._queued_writes += 1
        else:
            insert_at = 0
            for insert_at, queued in enumerate(bank.queue):
                if queued.is_write:
                    break
            else:
                insert_at = len(bank.queue)
            bank.queue.insert(insert_at, request)
        self._maybe_start(bank)

    def outstanding(self) -> int:
        """Requests queued or in service across all banks."""
        return sum(len(bank.queue) + (1 if bank.busy else 0) for bank in self._banks)

    def outstanding_writes(self) -> int:
        """Writes queued (not counting the one currently in service)."""
        return self._queued_writes

    def is_idle(self) -> bool:
        """True when no bank has queued or in-flight work."""
        return self.outstanding() == 0

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable device state: each bank's open row.

        Only valid at a quiescent point — queued requests carry live
        completion callbacks and cannot be serialized.
        """
        if not self.is_idle():
            raise RuntimeError(
                f"cannot serialize NVM device with {self.outstanding()} "
                f"outstanding requests"
            )
        return {"open_rows": [bank.open_row for bank in self._banks]}

    def load_state(self, state: dict) -> None:
        """Restore per-bank open rows from :meth:`state_dict` output."""
        open_rows = state["open_rows"]
        if len(open_rows) != len(self._banks):
            raise ValueError(
                f"snapshot has {len(open_rows)} banks, device has "
                f"{len(self._banks)}"
            )
        for bank, open_row in zip(self._banks, open_rows):
            bank.open_row = int(open_row)
            bank.queue = []
            bank.busy = False
        self._queued_writes = 0

    def notify_when_drained(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once every queued request has completed.

        Used by ``pcommit`` (non-ADR persistency domains).
        """
        if self.is_idle():
            self.engine.schedule(0, callback)
        else:
            self._drain_callbacks.append(callback)

    # -- service loop -------------------------------------------------------

    def _service_latency(self, bank: _Bank, request: NvmRequest) -> int:
        """Row-buffer-aware service time.

        A row hit is a burst transfer into/out of the open row; a row
        miss pays the full array access (the NVM write latency is what
        the paper's sensitivity study varies).
        """
        row = request.addr >> ROW_SHIFT
        if row == bank.open_row:
            self.stats.add("nvm.row_hits")
            return self.config.row_hit_latency
        bank.open_row = row
        self.stats.add("nvm.row_misses")
        return (
            self.config.write_latency if request.is_write else self.config.read_latency
        )

    def _select(self, bank: _Bank) -> NvmRequest:
        """FR-FCFS: prefer the oldest request hitting the open row, then
        the oldest request overall.  Reads were already inserted ahead of
        writes, so read priority is preserved within the row-hit rule."""
        for index, request in enumerate(bank.queue):
            if (request.addr >> ROW_SHIFT) == bank.open_row:
                return bank.queue.pop(index)
        return bank.queue.pop(0)

    def _maybe_start(self, bank: _Bank) -> None:
        if bank.busy or not bank.queue:
            return
        bank.busy = True
        request = self._select(bank)
        if request.is_write:
            self._queued_writes -= 1
        row_hit = (request.addr >> ROW_SHIFT) == bank.open_row
        latency = self._service_latency(bank, request)
        if self.tracer.enabled:
            self.tracer.complete(
                "mem", "write" if request.is_write else "read",
                start=self.engine.cycle, dur=latency,
                tid=TID_NVM_BASE + self.bank_of(request.addr),
                addr=request.addr, category=request.category, row_hit=row_hit,
            )
        self.engine.schedule(latency, lambda: self._finish(bank, request))

    def _finish(self, bank: _Bank, request: NvmRequest) -> None:
        if request.is_write:
            self.stats.add(f"nvm.write.{request.category}")
            if self.observer is not None:
                self.observer.on_nvm_write(request)
        else:
            self.stats.add("nvm.reads")
        bank.busy = False
        if request.callback is not None:
            request.callback()
        self._maybe_start(bank)
        if not bank.queue and self._drain_callbacks and self.is_idle():
            callbacks, self._drain_callbacks = self._drain_callbacks, []
            for callback in callbacks:
                callback()
        if self.on_state_change is not None:
            self.on_state_change()
