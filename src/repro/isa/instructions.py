"""ISA-level instruction definitions.

The instruction set mirrors the paper's simulation infrastructure:

* ordinary ``ld``/``st`` and generic ``alu`` work,
* the Intel PMEM persistence instructions (``clwb``, ``clflushopt``,
  ``sfence``, ``mfence``, ``pcommit``),
* transaction boundary marks (``tx-begin`` / ``tx-end``), and
* the two Proteus instructions (``log-load`` / ``log-flush``) plus the
  ``log-save`` context-switch helper (paper section 3.2 and 4.4).

Instructions are plain, immutable, position-independent records: a
dependence is a backward distance, not a trace index, so one record can
sit at many positions of a trace (every link of a lowered think chain is
the same record).  The cycle-level core attaches per-dynamic-instance
state separately (see ``repro.cpu.ooo_core``), so a single decoded trace
can be replayed many times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

#: Cache line size in bytes (Table 1: 64 B blocks everywhere).
CACHE_LINE = 64

#: Proteus logging granularity in bytes (section 4.1: 32 B of data so that
#: data plus metadata fit one 64 B cache line).
LOG_GRAIN = 32


def cache_line_of(addr: int) -> int:
    """Return the base address of the cache line containing ``addr``."""
    return addr & ~(CACHE_LINE - 1)


def log_block_of(addr: int) -> int:
    """Return the base address of the 32 B logging block containing ``addr``."""
    return addr & ~(LOG_GRAIN - 1)


class Kind(enum.Enum):
    """Dynamic instruction kinds understood by the core model."""

    ALU = "alu"
    LOAD = "ld"
    STORE = "st"
    CLWB = "clwb"
    CLFLUSHOPT = "clflushopt"
    SFENCE = "sfence"
    MFENCE = "mfence"
    PCOMMIT = "pcommit"
    TX_BEGIN = "tx-begin"
    TX_END = "tx-end"
    LOG_LOAD = "log-load"
    LOG_FLUSH = "log-flush"
    LOG_SAVE = "log-save"

    # Per-kind class flags, fixed at import from the sets below.  The
    # core's per-cycle path reads these instead of testing set
    # membership, which hashes the Enum member in Python code.
    uses_load_queue: bool
    uses_store_queue: bool
    is_fence: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kind.{self.name}"


#: Kinds that occupy a load-queue entry.
LOAD_QUEUE_KINDS = frozenset({Kind.LOAD, Kind.LOG_LOAD})

#: Kinds that occupy a store-queue entry.  ``clwb``/``clflushopt`` behave
#: like stores in the pipeline (paper section 5.1).
STORE_QUEUE_KINDS = frozenset({Kind.STORE, Kind.CLWB, Kind.CLFLUSHOPT})

#: Kinds that act as retirement fences: they may not retire until all older
#: pending persistent operations have been acknowledged.
FENCE_KINDS = frozenset({Kind.SFENCE, Kind.MFENCE, Kind.PCOMMIT, Kind.TX_END})

for _kind in Kind:
    _kind.uses_load_queue = _kind in LOAD_QUEUE_KINDS
    _kind.uses_store_queue = _kind in STORE_QUEUE_KINDS
    _kind.is_fence = _kind in FENCE_KINDS
del _kind


@dataclass(frozen=True)
class Instruction:
    """One static instruction in a lowered trace.

    Attributes:
        kind: the operation class.
        addr: memory address for memory operations (byte address).
        size: access size in bytes for memory operations.
        dep: backward distance to the instruction whose *completion*
            this instruction must wait for before executing: 0 means no
            producer, k > 0 means the instruction k positions earlier in
            the same trace.  Used for pointer-chasing load chains, think
            chains and the LR dependence between a ``log-flush`` and its
            producing ``log-load``.  A distance keeps the record valid
            wherever it sits, so records are shared and must never be
            written to.
        txid: transaction id for ``tx-begin``/``tx-end`` and for memory
            operations executed inside a transaction (0 = outside).
        latency: execution latency in cycles for ALU work.
        value: functional payload for stores (used by the persistence
            model, ignored by the timing model).
        tag: free-form annotation used by tests and the persistency model
            (e.g. ``"log-entry"``, ``"logflag"``, ``"data"``).
    """

    kind: Kind
    addr: int = 0
    size: int = 8
    dep: int = 0
    txid: int = 0
    latency: int = 1
    value: Optional[int] = None
    tag: str = ""

    def is_memory(self) -> bool:
        """Return True when the instruction accesses the memory system."""
        return self.kind in (
            Kind.LOAD,
            Kind.STORE,
            Kind.CLWB,
            Kind.CLFLUSHOPT,
            Kind.LOG_LOAD,
            Kind.LOG_FLUSH,
        )

    def is_fence(self) -> bool:
        """Return True when the instruction has fence retirement semantics."""
        return self.kind.is_fence

    def producer_index(self, index: int) -> int:
        """Trace index of this instruction's producer when the instruction
        sits at ``index``, or -1 when it has none."""
        return index - self.dep if self.dep else -1

    def line(self) -> int:
        """Cache-line base address of this access."""
        return cache_line_of(self.addr)


def alu(latency: int = 1, tag: str = "") -> Instruction:
    """A generic computation instruction with the given latency."""
    return Instruction(Kind.ALU, latency=latency, tag=tag)


def load(addr: int, size: int = 8, dep: int = 0, txid: int = 0, tag: str = "") -> Instruction:
    """A load of ``size`` bytes from ``addr``."""
    return Instruction(Kind.LOAD, addr=addr, size=size, dep=dep, txid=txid, tag=tag)


def store(
    addr: int,
    size: int = 8,
    value: Optional[int] = None,
    txid: int = 0,
    tag: str = "data",
) -> Instruction:
    """A store of ``size`` bytes to ``addr``."""
    return Instruction(Kind.STORE, addr=addr, size=size, value=value, txid=txid, tag=tag)


def clwb(addr: int, txid: int = 0, tag: str = "") -> Instruction:
    """Write back the cache line containing ``addr`` (keeps it cached)."""
    return Instruction(Kind.CLWB, addr=addr, size=CACHE_LINE, txid=txid, tag=tag)


def clflushopt(addr: int, txid: int = 0, tag: str = "") -> Instruction:
    """Flush and invalidate the cache line containing ``addr``."""
    return Instruction(Kind.CLFLUSHOPT, addr=addr, size=CACHE_LINE, txid=txid, tag=tag)


def sfence() -> Instruction:
    """Store fence; waits for all pending PMEM operations to complete."""
    return Instruction(Kind.SFENCE)


def mfence() -> Instruction:
    """Full memory fence; identical persistence semantics to ``sfence``."""
    return Instruction(Kind.MFENCE)


def pcommit() -> Instruction:
    """Drain the WPQ to NVM (deprecated by ADR; modeled for PMEM+pcommit)."""
    return Instruction(Kind.PCOMMIT)


def tx_begin(txid: int) -> Instruction:
    """Durable-transaction begin mark."""
    return Instruction(Kind.TX_BEGIN, txid=txid)


def tx_end(txid: int) -> Instruction:
    """Durable-transaction end mark (fence semantics; clears the LLT)."""
    return Instruction(Kind.TX_END, txid=txid)


def log_load(addr: int, txid: int, dep: int = 0) -> Instruction:
    """Proteus ``log-load``: read the 32 B block at ``addr`` into an LR."""
    return Instruction(Kind.LOG_LOAD, addr=log_block_of(addr), size=LOG_GRAIN, dep=dep, txid=txid)


def log_flush(addr: int, txid: int, dep: int) -> Instruction:
    """Proteus ``log-flush``: flush the LR produced ``dep`` instructions earlier.

    ``addr`` records the *log-from* address (the 32 B block being logged);
    the log-to address is assigned dynamically from the LTA register in
    program order (paper section 4.2).
    """
    return Instruction(Kind.LOG_FLUSH, addr=log_block_of(addr), size=LOG_GRAIN, dep=dep, txid=txid)


def log_save() -> Instruction:
    """Context-switch helper: spill logging registers, flush LPQ entries."""
    return Instruction(Kind.LOG_SAVE)


def expand_lines(addr: int, size: int) -> Tuple[int, ...]:
    """Return the cache-line base addresses touched by ``[addr, addr+size)``.

    The result is strictly increasing and duplicate free by construction;
    a non-positive ``size`` (an empty range has no lines, so callers
    iterating the result would silently account for nothing) is rejected.
    """
    if size < 1:
        raise ValueError(f"access size must be >= 1 byte, got {size}")
    if addr < 0:
        raise ValueError(f"address must be non-negative, got {addr:#x}")
    first = cache_line_of(addr)
    last = cache_line_of(addr + size - 1)
    return tuple(range(first, last + 1, CACHE_LINE))


def expand_log_blocks(addr: int, size: int) -> Tuple[int, ...]:
    """Return the 32 B logging-block base addresses touched by the range.

    Same contract as :func:`expand_lines`: strictly increasing, duplicate
    free, positive sizes only.
    """
    if size < 1:
        raise ValueError(f"access size must be >= 1 byte, got {size}")
    if addr < 0:
        raise ValueError(f"address must be non-negative, got {addr:#x}")
    first = log_block_of(addr)
    last = log_block_of(addr + size - 1)
    return tuple(range(first, last + 1, LOG_GRAIN))
