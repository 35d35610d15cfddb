"""The persistency model of one lowered instruction stream.

persist-lint (:mod:`repro.lint`) and persist-verify (:mod:`repro.verify`)
both replay a lowered stream through this one model, so they cannot
disagree about what a fence, a ``pcommit`` or a ``tx-end`` makes
durable.  For every cache line the stream touches, a
:class:`LineHistory` records two views of the same progress:

* the line's :class:`PersistState`, how far its newest store has got
  toward durability (persist-lint's rules read it)::

      CLEAN -> DIRTY -> PENDING -> FENCED -> DURABLE
              (store)   (clwb)    (sfence)  (pcommit / tx-end)

  Under ADR (every scheme except PMEM+pcommit) ``FENCED`` already means
  durable: the fence completed the write-back into the WPQ, which is
  inside the persistence domain.  Under PMEM+pcommit durability needs
  the ``pcommit`` drain as well;
* the *write-prefix interval* a crash may expose (persist-verify
  enumerates it): the **floor**, the longest write prefix the
  persistency model guarantees durable, and the **ceiling**, every
  write executed so far.  A dirty line may be evicted and written back
  at any moment, so any executed prefix is reachable; a *suffix*
  without its prefix is not, because write-backs are whole-line.

The two views are kept side by side because neither follows from the
other: a store that leaves a line's content unchanged makes the line
DIRTY but adds no version, and the floor does not tell FENCED from
DURABLE under ADR.  The transitions set both:

* **store** — the line becomes DIRTY; a version is appended only when
  the content changes (consecutive writes leaving identical content are
  persist-equivalent: no crash can tell them apart);
* **clwb / clflushopt** — a DIRTY line becomes PENDING and the flush
  captures its newest version.  Flushing a line that is not dirty
  captures nothing new;
* **sfence / mfence** — PENDING lines become FENCED; the captured
  versions become the floor (under PMEM+pcommit they are staged for
  the drain instead);
* **pcommit** — what an sfence does, then FENCED lines become DURABLE
  and staged versions become the floor.  This is the machine's
  ``pcommit``: the core holds it until every flush is acknowledged, then
  drains the WPQ;
* **tx-end** — the same as ``pcommit``: commit is the durability point.

On top of the lines the model keeps what a crash frontier needs for the
hardware-logging schemes: the in-flight transaction's undo-log entries
(Proteus ``log-flush`` pairs, ATOM's store-retirement entries) with the
log-before-data edge each scheme guarantees, and the commit points whose
durability promise has been made.

Everything here is per-thread: threads own disjoint address-space
slices, so their crash states compose independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.codegen import REGION_DATA, ThreadLayout, region_of
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Instruction, Kind, expand_log_blocks
from repro.persistence.crash import WORD, LogEntry

_LINE_MASK = ~(CACHE_LINE - 1)


class PersistState(enum.IntEnum):
    """How far a cache line's newest store has got toward durability."""

    CLEAN = 0
    DIRTY = 1
    PENDING = 2
    FENCED = 3
    DURABLE = 4


@dataclass
class LineHistory:
    """One persistent line: its persist state and its content versions.

    ``versions[v]`` is the full word->value content after the first
    ``v`` *effective* writes (writes leaving the content unchanged add
    no version).
    """

    line: int
    region: str
    versions: List[Dict[int, int]]
    #: txid of the store that produced each version (0 for the initial).
    txids: List[int] = field(default_factory=lambda: [0])
    #: instruction index that produced each version (-1 for the initial).
    producers: List[int] = field(default_factory=lambda: [-1])
    #: cumulative log-entry prefix the version's in-flight stores require
    #: (hardware schemes; 0 = unconstrained).
    needs: List[int] = field(default_factory=lambda: [0])
    #: how far the newest store has got toward durability.
    state: PersistState = PersistState.CLEAN
    #: index of the newest version guaranteed durable.
    floor: int = 0
    #: newest version captured by a flush since the last fence.
    pending: Optional[int] = None
    #: newest fenced-but-not-drained version (PMEM+pcommit).
    staged: Optional[int] = None

    @property
    def executed(self) -> int:
        return len(self.versions) - 1


@dataclass(frozen=True)
class HwEntry:
    """One hardware undo-log entry (Proteus pair / ATOM store-retire)."""

    block: int
    grain: int
    pre_image: Tuple[Tuple[int, int], ...]
    txid: int
    order: int
    #: index of the instruction that created the entry (the log-flush,
    #: or under ATOM the store).
    index: int

    def to_log_entry(self) -> LogEntry:
        return LogEntry(
            block=self.block,
            grain=self.grain,
            pre_image=dict(self.pre_image),
            txid=self.txid,
            order=self.order,
        )


class StreamState:
    """One thread's persistency model, driven instruction by instruction:
    the line records, the in-flight hardware log and the commit points."""

    def __init__(
        self,
        scheme: Scheme,
        layout: ThreadLayout,
        initial_image: Optional[Dict[int, int]] = None,
    ) -> None:
        self.scheme = scheme
        self.layout = layout
        #: the least state that survives power loss.
        self.durable_state = (
            PersistState.DURABLE if scheme.uses_pcommit else PersistState.FENCED
        )
        self.memory: Dict[int, int] = dict(initial_image or {})
        #: the caller's image, never mutated: crash images overlay it, so
        #: candidates built over the same object need no rebuilding.
        self.initial_image: Dict[int, int] = (
            initial_image if initial_image is not None else {}
        )
        #: initial words of each line not yet tracked, by line.
        self._initial_lines: Dict[int, Dict[int, int]] = {}
        for word, value in self.initial_image.items():
            self._initial_lines.setdefault(word & _LINE_MASK, {})[word] = value
        self.lines: Dict[int, LineHistory] = {}
        #: lines flushed since the last fence.
        self._flushed: Set[int] = set()
        #: lines a fence promoted since the last drain.
        self._fenced: Set[int] = set()
        self._last_load_value: int = 0
        #: log-load captures: instruction index -> 32 B block content.
        self._lr: Dict[int, Dict[int, int]] = {}
        self.open_txid: Optional[int] = None
        self.entries: List[HwEntry] = []
        self.fenced_entries: int = 0
        self._logged_blocks: Set[int] = set()
        #: log block -> entry prefix that covers it (Proteus pairs).
        self._pair_need: Dict[int, int] = {}
        #: commit points executed (a hardware ``tx-end``, a software
        #: logFlag clear), and those whose durability promise has been
        #: made: immediately for hardware (``tx-end`` retirement drains
        #: the mark), at the next persist fence (+``pcommit`` where
        #: required) for software, the Figure-2 step-4 fence after which
        #: the application may rely on the transaction surviving any
        #: crash.
        self._commits_executed = 0
        self._commits_sealed = 0
        #: counts the transitions that can change what a crash exposes
        #: (all but a load and a log-load): a view derived from this
        #: state, such as persist-verify's frontier view, is current
        #: while the count is the one it was built at.
        self.transitions = 0
        #: the latest such view, kept here by its reader.
        self.view: Optional[object] = None

    # -- line bookkeeping ------------------------------------------------------

    def _history(self, line: int) -> LineHistory:
        history = self.lines.get(line)
        if history is None:
            history = LineHistory(
                line=line,
                region=region_of(line, self.layout),
                versions=[self._initial_lines.pop(line, {})],
            )
            self.lines[line] = history
        return history

    def state(self, line: int) -> PersistState:
        """The persist state of ``line`` (CLEAN when never touched)."""
        history = self.lines.get(line)
        return PersistState.CLEAN if history is None else history.state

    def durable(self, line: int) -> bool:
        """Whether ``line``'s newest store survives power loss."""
        return self.state(line) >= self.durable_state

    # -- transitions -----------------------------------------------------------

    def load(self, instr: Instruction) -> None:
        """A load: remember the value a following log copy stores."""
        self._last_load_value = self.memory.get(instr.addr, 0)

    def store(self, index: int, instr: Instruction) -> None:
        """A store: every line it writes becomes DIRTY."""
        self.transitions += 1
        value = instr.value
        if value is None:
            # Log-copy idiom: the payload is whatever the paired load of
            # the data line just read.  Plain data stores carry explicit
            # values; a missing one means zero.
            value = self._last_load_value if instr.tag == "log-copy" else 0
        addr = instr.addr
        end = addr + instr.size
        txid = instr.txid
        need = 0
        if (
            self.open_txid is not None
            and txid == self.open_txid
            and region_of(addr, self.layout) == REGION_DATA
        ):
            if self.scheme.is_sshl:
                pair_need = self._pair_need
                need = max(
                    pair_need.get(block, 0) for block in expand_log_blocks(addr, instr.size)
                )
            elif self.scheme.is_hardware:
                self._atom_log(index, instr)
        start = addr
        while start < end:
            # The words of this store that fall in one line.
            line = start & _LINE_MASK
            words = range(start, min(end, line + CACHE_LINE), WORD)
            start = words[-1] + WORD
            history = self._history(line)
            history.state = PersistState.DIRTY
            current = history.versions[-1]
            for word in words:
                if current.get(word) != value:
                    break
            else:
                continue  # persist-equivalent: identical durable content
            content = dict(current)
            for word in words:
                content[word] = value
            previous_need = history.needs[-1] if history.txids[-1] == txid else 0
            history.versions.append(content)
            history.txids.append(txid)
            history.producers.append(index)
            history.needs.append(max(previous_need, need))
        memory = self.memory
        for word in range(addr, end, WORD):
            memory[word] = value
        # The software logFlag clear is the commit point.
        if (
            instr.tag == "logflag"
            and instr.value in (0, None)
            and self.scheme.is_software
        ):
            self._commits_executed += 1

    def flush(self, line: int) -> None:
        """``clwb``/``clflushopt``: capture a dirty line's newest version."""
        self.transitions += 1
        history = self._history(line)
        if history.state is PersistState.DIRTY:
            history.state = PersistState.PENDING
            history.pending = history.executed
            self._flushed.add(line)

    def fence(self) -> None:
        """``sfence``/``mfence``: complete every flush issued before it."""
        self.transitions += 1
        staging = self.scheme.uses_pcommit
        lines = self.lines
        for line in self._flushed:
            history = lines[line]
            if history.state is PersistState.PENDING:
                history.state = PersistState.FENCED
            captured = history.pending
            assert captured is not None
            if staging:
                history.staged = (
                    captured if history.staged is None else max(history.staged, captured)
                )
            else:
                history.floor = max(history.floor, captured)
            history.pending = None
        self._fenced.update(self._flushed)
        self._flushed.clear()
        self.fenced_entries = len(self.entries)
        if not staging:
            self._seal_commits()

    def pcommit(self) -> None:
        """``pcommit``: fence, then drain the WPQ to the persistent media."""
        self.fence()
        lines = self.lines
        for line in self._fenced:
            history = lines[line]
            if history.state is PersistState.FENCED:
                history.state = PersistState.DURABLE
            if history.staged is not None:
                history.floor = max(history.floor, history.staged)
                history.staged = None
        self._fenced.clear()
        self._seal_commits()

    def _seal_commits(self) -> None:
        self._commits_sealed = self._commits_executed

    def tx_begin(self, txid: int) -> None:
        """``tx-begin``: open a transaction unless one is open already."""
        self.transitions += 1
        if self.open_txid is None:
            self.open_txid = txid
            self._reset_log()

    def tx_end(self) -> None:
        """``tx-end``: a ``pcommit`` that also commits the open transaction."""
        self.pcommit()
        if self.open_txid is not None:
            self._commits_executed += 1
            self._seal_commits()
        self.open_txid = None
        self._reset_log()

    def _reset_log(self) -> None:
        self.entries = []
        self.fenced_entries = 0
        self._logged_blocks = set()
        self._pair_need = {}

    def log_load(self, index: int, instr: Instruction) -> None:
        """``log-load``: capture the block's content into a logging register."""
        block = instr.addr
        memory = self.memory
        self._lr[index] = {
            word: memory.get(word, 0) for word in range(block, block + instr.size, WORD)
        }

    def log_flush(self, index: int, instr: Instruction) -> None:
        """``log-flush``: append its producer's capture as an undo entry."""
        self.transitions += 1
        if self.open_txid is None or instr.txid != self.open_txid:
            return  # dangling flush outside any transaction: no entry
        captured = self._lr.get(instr.producer_index(index))
        if captured is None:
            return  # no producer (P006): the flush carries no undo data
        self.entries.append(
            HwEntry(
                block=instr.addr,
                grain=instr.size,
                pre_image=tuple(sorted(captured.items())),
                txid=instr.txid,
                order=len(self.entries),
                index=index,
            )
        )
        # A Proteus store may persist only after the newest entry
        # covering its block (its log-before-data edge).
        self._pair_need[instr.addr] = len(self.entries)

    def _atom_log(self, index: int, instr: Instruction) -> None:
        """ATOM logs the line at store retirement, before the store's own
        data can drain; the entry is durable by hardware construction."""
        first = instr.addr & _LINE_MASK
        last = (instr.addr + instr.size - 1) & _LINE_MASK
        for line in range(first, last + 1, CACHE_LINE):
            if line in self._logged_blocks:
                continue
            self._logged_blocks.add(line)
            pre = tuple(
                (word, self.memory.get(word, 0))
                for word in range(line, line + CACHE_LINE, WORD)
            )
            self.entries.append(
                HwEntry(
                    block=line,
                    grain=CACHE_LINE,
                    pre_image=pre,
                    txid=instr.txid,
                    order=len(self.entries),
                    index=index,
                )
            )
        self.fenced_entries = len(self.entries)

    def apply(self, index: int, instr: Instruction) -> None:
        """Advance the model over one executed instruction."""
        kind = instr.kind
        if kind is Kind.STORE:
            self.store(index, instr)
        elif kind is Kind.LOAD:
            self.load(instr)
        elif kind is Kind.CLWB or kind is Kind.CLFLUSHOPT:
            self.flush(instr.addr & _LINE_MASK)
        elif kind is Kind.SFENCE or kind is Kind.MFENCE:
            self.fence()
        elif kind is Kind.PCOMMIT:
            self.pcommit()
        elif kind is Kind.LOG_LOAD:
            self.log_load(index, instr)
        elif kind is Kind.LOG_FLUSH:
            self.log_flush(index, instr)
        elif kind is Kind.TX_BEGIN:
            self.tx_begin(instr.txid)
        elif kind is Kind.TX_END:
            self.tx_end()

    # -- per-position views ----------------------------------------------------

    def commits_executed(self) -> int:
        return self._commits_executed

    def commits_sealed(self) -> int:
        """Commit points whose durability promise has been made.

        Every frontier from here on must recover to at least this many
        committed transactions — a verdict below it is a durability
        violation even when the recovered image is internally consistent
        (e.g. a committed transaction silently rolled back because its
        flag clear or a data flush never persisted)."""
        return self._commits_sealed

    def digest(self) -> Tuple[object, ...]:
        """Canonical key of the reachable crash-state set at this point.

        Two stream positions with equal digests expose identical
        frontier sets and recovery verdicts, so the checker enumerates
        only one of them (per-epoch frontier canonicalization: positions
        inside one epoch differ only where a tracked component moved).
        Tracked lines are only ever added, so their insertion order is
        canonical within one walk.
        """
        line_part = tuple(
            (line, history.floor, history.executed)
            for line, history in self.lines.items()
        )
        return (
            line_part,
            len(self.entries),
            self.fenced_entries,
            self.open_txid,
            self._commits_executed,
            self._commits_sealed,
        )
