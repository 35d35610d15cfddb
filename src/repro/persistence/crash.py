"""Crash injection.

A :class:`CrashPoint` names a transaction, the protocol phase reached,
and the nondeterministic durability choices a crash exposes: which of the
transaction's log entries made it into the persistency domain, and which
of its written cache lines happened to be written back.  The function
:func:`crash_image` turns that into the durable machine state recovery
will see — enforcing (or, when asked, deliberately violating) the
log-before-data invariant the hardware guarantees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE
from repro.persistence.model import FunctionalTx, LogEntry, image_after


class Phase(enum.Enum):
    """How far the crashing transaction's protocol got.

    For software logging these map to Figure 2's steps; the hardware
    schemes log per store, so LOGGING/BODY collapse into IN_FLIGHT.
    """

    BEFORE = "before"          # crash before the tx did anything durable
    LOGGING = "logging"        # SW step 1 in progress (flag still clear)
    FLAGGED = "flagged"        # SW step 2 done, no data written back yet
    IN_FLIGHT = "in-flight"    # body running; log/data subsets durable
    FLUSHED = "flushed"        # data all durable, commit mark not yet
    COMMITTED = "committed"    # commit mark durable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Phase.{self.name}"


@dataclass(frozen=True)
class CrashPoint:
    """Where and how the machine died.

    Attributes:
        tx_index: 0-based index of the in-flight transaction.
        phase: protocol progress of that transaction.
        log_durable: indices (into the tx's ``log_entries``) that reached
            the persistency domain; None means "all of them".
        data_durable: indices (into the tx's ``written_lines``) whose
            lines were written back; None means "none" for IN_FLIGHT.
            Only meaningful for Phase.IN_FLIGHT.
    """

    tx_index: int
    phase: Phase
    log_durable: Optional[FrozenSet[int]] = None
    data_durable: Optional[FrozenSet[int]] = None


@dataclass
class CrashImage:
    """Durable machine state at the moment of the crash.

    With an empty ``base`` (the default), ``durable`` is the whole
    durable memory image.  With a non-empty ``base``, ``durable`` is an
    overlay over it: a word ``durable`` holds has that value, and every
    other word holds its ``base`` value.  In both, an absent word reads
    as 0.  persist-verify builds overlays over a thread's initial image,
    so a crash frontier costs the lines it tracks, not the whole heap.
    """

    scheme: Scheme
    durable: Dict[int, int]
    #: durable undo-log entries of the in-flight transaction
    log_entries: List[LogEntry]
    #: software logging: value of the logFlag (0 = clear)
    logflag: int = 0
    #: hardware schemes: the in-flight tx's end-of-transaction mark
    end_mark: bool = False
    #: txid of the in-flight transaction (0 when none)
    inflight_txid: int = 0
    #: the image ``durable`` overlays (empty: ``durable`` is whole)
    base: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_machine_state(
        cls,
        scheme: Scheme,
        initial: Dict[int, int],
        txs: List[FunctionalTx],
        *,
        committed: int,
        inflight_active: bool,
        durable_log_blocks: FrozenSet[int] = frozenset(),
        durable_data_lines: FrozenSet[int] = frozenset(),
        logflag: int = 0,
        sw_log_entries: Optional[List[LogEntry]] = None,
        enforce_invariant: bool = True,
    ) -> "CrashImage":
        """Build a crash image from observed microarchitectural state.

        The fault-injection harness feeds this with what it observed on
        the real timing machine up to the crash cycle:

        * ``committed`` — transactions whose commit point retired (hw:
          ``tx-end``; sw: the logFlag *clear* reached the WPQ).
        * ``inflight_active`` — whether the next transaction had started
          doing durable work when the machine died.
        * ``durable_log_blocks`` — log-from block addresses of the
          in-flight transaction whose log entries were acknowledged by
          the persistency domain (WPQ/LPQ admission).
        * ``durable_data_lines`` — data line addresses of the in-flight
          transaction admitted to the WPQ before the crash.
        * ``logflag`` / ``sw_log_entries`` — software logging: the durable
          flag value and the log entries (of the flagged transaction)
          whose payload and header lines are both durable.

        Values come from the functional transaction records — the timing
        simulator tracks addresses and occupancy, not data — so the image
        pairs real machine durability *events* with modeled contents.
        """
        k = min(committed, len(txs))
        if scheme.is_software:
            durable = image_after(initial, txs, k)
            inflight_txid = 0
            if k < len(txs) and inflight_active:
                tx = txs[k]
                inflight_txid = tx.txid
                data_indices = frozenset(
                    i
                    for i, line in enumerate(tx.written_lines)
                    if line in durable_data_lines
                )
                if data_indices and enforce_invariant:
                    entries = sw_log_entries or []
                    covered = sum(1 for e in entries if e.txid == tx.txid)
                    if logflag != tx.txid or covered < len(tx.log_entries):
                        raise InvariantViolation(
                            f"tx {tx.txid}: data lines durable before the "
                            f"logFlag/log persisted (flag={logflag}, "
                            f"{covered}/{len(tx.log_entries)} entries) — "
                            f"the Figure-2 fences forbid this state"
                        )
                _apply_data_subset(durable, tx, data_indices)
            return cls(
                scheme,
                durable,
                list(sw_log_entries or []),
                logflag=logflag,
                inflight_txid=inflight_txid,
            )
        if k >= len(txs) or not inflight_active:
            return cls(scheme, image_after(initial, txs, k), [], inflight_txid=0)
        tx = txs[k]
        log_indices = frozenset(
            i
            for i, entry in enumerate(tx.log_entries)
            if entry.block in durable_log_blocks
        )
        data_indices = frozenset(
            i
            for i, line in enumerate(tx.written_lines)
            if line in durable_data_lines
        )
        return crash_image(
            initial,
            txs,
            scheme,
            CrashPoint(k, Phase.IN_FLIGHT, log_indices, data_indices),
            enforce_invariant=enforce_invariant,
        )


class InvariantViolation(ValueError):
    """A crash point was requested that the hardware can never produce."""


def crash_image(
    initial: Dict[int, int],
    txs: List[FunctionalTx],
    scheme: Scheme,
    crash: CrashPoint,
    enforce_invariant: bool = True,
) -> CrashImage:
    """Construct the durable state for a crash point.

    With ``enforce_invariant`` (the default) a data line can only be
    durable when every log entry covering its words is durable — the
    ordering the LogQ / store-buffer rules guarantee.  Passing False lets
    tests demonstrate that violating the invariant really does break
    recovery.
    """
    if not 0 <= crash.tx_index < len(txs):
        raise ValueError(f"tx_index {crash.tx_index} out of range")
    tx = txs[crash.tx_index]
    durable = image_after(initial, txs, crash.tx_index)

    if crash.phase is Phase.BEFORE:
        return CrashImage(scheme, durable, [], inflight_txid=0)

    if crash.phase is Phase.COMMITTED:
        durable.update(tx.final_words)
        return CrashImage(
            scheme, durable, [], end_mark=True, inflight_txid=tx.txid
        )

    log_indices = (
        set(range(len(tx.log_entries)))
        if crash.log_durable is None
        else set(crash.log_durable)
    )
    log_indices &= set(range(len(tx.log_entries)))
    durable_entries = [tx.log_entries[i] for i in sorted(log_indices)]

    if scheme.is_software:
        return _software_image(scheme, durable, tx, crash, durable_entries, log_indices)
    return _hardware_image(
        scheme, durable, tx, crash, durable_entries, log_indices, enforce_invariant
    )


def _software_image(
    scheme: Scheme,
    durable: Dict[int, int],
    tx: FunctionalTx,
    crash: CrashPoint,
    durable_entries: List[LogEntry],
    log_indices: Set[int],
) -> CrashImage:
    if crash.phase is Phase.LOGGING:
        # Flag not set yet; partial log is harmless garbage.
        return CrashImage(scheme, durable, durable_entries, logflag=0, inflight_txid=tx.txid)
    # From FLAGGED onward the whole log persisted (step 1's fence).
    full_log = list(tx.log_entries)
    if crash.phase is Phase.FLAGGED:
        return CrashImage(scheme, durable, full_log, logflag=tx.txid, inflight_txid=tx.txid)
    if crash.phase is Phase.IN_FLIGHT:
        _apply_data_subset(durable, tx, crash.data_durable)
        return CrashImage(scheme, durable, full_log, logflag=tx.txid, inflight_txid=tx.txid)
    # FLUSHED: all data durable, flag still set — recovery rolls back.
    durable.update(tx.final_words)
    return CrashImage(scheme, durable, full_log, logflag=tx.txid, inflight_txid=tx.txid)


def _hardware_image(
    scheme: Scheme,
    durable: Dict[int, int],
    tx: FunctionalTx,
    crash: CrashPoint,
    durable_entries: List[LogEntry],
    log_indices: Set[int],
    enforce_invariant: bool,
) -> CrashImage:
    if crash.phase in (Phase.LOGGING, Phase.FLAGGED):
        raise ValueError(f"{crash.phase} applies to software logging only")
    if crash.phase is Phase.FLUSHED:
        durable.update(tx.final_words)
        return CrashImage(
            scheme, durable, list(tx.log_entries), end_mark=False, inflight_txid=tx.txid
        )
    # IN_FLIGHT: the chosen data lines persisted.
    data_indices = (
        set() if crash.data_durable is None else set(crash.data_durable)
    )
    data_indices &= set(range(len(tx.written_lines)))
    if enforce_invariant and scheme.failure_safe:
        for index in data_indices:
            line = tx.written_lines[index]
            _check_line_covered(tx, line, log_indices)
    _apply_data_subset(durable, tx, frozenset(data_indices))
    return CrashImage(
        scheme, durable, durable_entries, end_mark=False, inflight_txid=tx.txid
    )


def _check_line_covered(tx: FunctionalTx, line: int, log_indices: Set[int]) -> None:
    """log-before-data: every logged block overlapping a durable line must
    have its (earliest) entry durable."""
    needed = set()
    for index, entry in enumerate(tx.log_entries):
        overlaps = not (
            entry.block + entry.grain <= line or line + CACHE_LINE <= entry.block
        )
        if overlaps:
            needed.add(index)
            break  # earliest entry is the one recovery relies on
    if needed - log_indices:
        raise InvariantViolation(
            f"data line {line:#x} durable but its log entry is not — the "
            f"LogQ ordering rule forbids this state"
        )


def _apply_data_subset(
    durable: Dict[int, int], tx: FunctionalTx, data_durable: Optional[FrozenSet[int]]
) -> None:
    if not data_durable:
        return
    lines = {
        tx.written_lines[i]
        for i in data_durable
        if 0 <= i < len(tx.written_lines)
    }
    for word, value in tx.final_words.items():
        if word & ~(CACHE_LINE - 1) in lines:
            durable[word] = value
