"""Software-managed per-thread log areas (paper section 4.1).

Proteus keeps software in control of the log: each thread allocates one
log area, treated as a circular buffer of 64 B log entries (32 B data +
32 B metadata: log-from address, transaction id, end-of-transaction
mark).  Hardware only needs three registers per core — ``log-start``,
``log-end`` and ``cur-log`` (the LTA auto-increment target).

If a transaction's log entries overflow the area, the processor raises
an exception; here that is :class:`LogAreaOverflow`.
"""

from __future__ import annotations

from typing import Optional

#: Size of one log entry in bytes (data + metadata fit one cache line).
LOG_ENTRY_BYTES = 64


class LogAreaOverflow(RuntimeError):
    """Raised when a single transaction wraps the whole circular log."""


class LogArea:
    """One thread's circular log buffer.

    Timing simulation only needs :meth:`next_slot`; entry contents live
    in the persistency model (:mod:`repro.persistence.stream`).
    """

    def __init__(self, base: int, size: int, thread_id: int = 0) -> None:
        if size < LOG_ENTRY_BYTES:
            raise ValueError("log area smaller than one entry")
        if size % LOG_ENTRY_BYTES:
            raise ValueError("log area size must be a multiple of the entry size")
        if base % LOG_ENTRY_BYTES:
            raise ValueError("log area base must be entry aligned")
        self.base = base
        self.size = size
        self.thread_id = thread_id
        self.cur = base  # the cur-log / LTA register
        self._tx_start: Optional[int] = None
        self._tx_entries = 0

    @property
    def end(self) -> int:
        """One past the last byte of the area (the log-end register)."""
        return self.base + self.size

    @property
    def capacity_entries(self) -> int:
        """Total entries the area can hold."""
        return self.size // LOG_ENTRY_BYTES

    def begin_transaction(self) -> None:
        """Mark the start of a transaction's log allocation."""
        self._tx_start = self.cur
        self._tx_entries = 0

    def next_slot(self) -> int:
        """Allocate the next log-to address (LTA auto-increment).

        Wraps circularly; raises :class:`LogAreaOverflow` when a single
        transaction has consumed every entry in the area.
        """
        if self._tx_start is not None:
            if self._tx_entries >= self.capacity_entries:
                raise LogAreaOverflow(
                    f"transaction exceeded log area of "
                    f"{self.capacity_entries} entries (thread {self.thread_id})"
                )
            self._tx_entries += 1
        slot = self.cur
        self.cur += LOG_ENTRY_BYTES
        if self.cur >= self.end:
            self.cur = self.base
        return slot

    def end_transaction(self) -> None:
        """Mark transaction end; resets the per-transaction entry count."""
        self._tx_start = None
        self._tx_entries = 0

    def contains(self, addr: int) -> bool:
        """True when ``addr`` falls inside the log area."""
        return self.base <= addr < self.end

    def entries_used_by_current_tx(self) -> int:
        """Entries allocated since :meth:`begin_transaction`."""
        return self._tx_entries

    def snapshot(self) -> dict:
        """LTA register state for a crash capture: the cur-log cursor and
        the in-flight transaction's allocation count."""
        return {"cur": self.cur, "tx_entries": self._tx_entries}

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable register state; only valid between transactions."""
        if self._tx_start is not None:
            raise RuntimeError(
                "cannot serialize a log area mid-transaction "
                f"(thread {self.thread_id})"
            )
        return {"cur": self.cur}

    def load_state(self, state: dict) -> None:
        """Restore the cur-log register from :meth:`state_dict` output."""
        self.set_cursor(int(state["cur"]))

    def set_cursor(self, cur: int) -> None:
        """Position the cur-log (LTA) register; validates range/alignment."""
        if not self.base <= cur < self.end:
            raise ValueError(
                f"cur-log {cur:#x} outside log area "
                f"[{self.base:#x}, {self.end:#x})"
            )
        if (cur - self.base) % LOG_ENTRY_BYTES:
            raise ValueError(f"cur-log {cur:#x} is not entry aligned")
        self.cur = cur
        self._tx_start = None
        self._tx_entries = 0
