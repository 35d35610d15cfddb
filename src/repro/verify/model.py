"""Symbolic persistency model: the crash-frontier state machine.

The model checker replays one lowered instruction stream through a
symbolic per-cache-line memory and tracks, for every persistent line,
the *write-prefix interval* a crash may expose:

* the **floor** — the longest write prefix the scheme's persistency
  model guarantees durable (flushes promoted by fences, ``pcommit``
  where the scheme requires it, ``tx-end`` drains);
* the **frontier ceiling** — every write executed so far (a dirty line
  may be evicted and written back at any moment, so any executed prefix
  is reachable; a *suffix* without its prefix is not, because write-backs
  are whole-line).

A crash frontier is one downward-closed cut of this partial order: a
choice of write prefix per line, plus — for the hardware-logging
schemes — a durable *prefix* of the in-flight transaction's log entries
(the paper's program-order log-to invariant makes log persists FIFO),
coupled to the data choices by the log-before-data edge each scheme
guarantees (a transactional store may persist only after its covering
log entry).

Everything here is per-thread: threads own disjoint address-space
slices, so their crash states compose independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.codegen import REGION_DATA, ThreadLayout, region_of
from repro.core.schemes import Scheme
from repro.isa.instructions import CACHE_LINE, Instruction, Kind
from repro.lint.ir import LintIR
from repro.lint.profiles import Profile
from repro.persistence.model import WORD, LogEntry

#: Instruction kinds after which the reachable crash-state set changes.
INTERESTING_KINDS = frozenset(
    {
        Kind.STORE,
        Kind.CLWB,
        Kind.CLFLUSHOPT,
        Kind.SFENCE,
        Kind.MFENCE,
        Kind.PCOMMIT,
        Kind.TX_BEGIN,
        Kind.TX_END,
        Kind.LOG_FLUSH,
    }
)


def _line_of(addr: int) -> int:
    return addr & ~(CACHE_LINE - 1)


@dataclass
class LineHistory:
    """Distinct durable-content versions of one persistent line.

    ``versions[v]`` is the full word->value content after the first
    ``v`` *effective* writes (consecutive writes leaving identical
    content are collapsed — the persist-equivalence reduction: frontiers
    differing only in which of two identical-content prefixes persisted
    are indistinguishable to recovery).
    """

    line: int
    region: str
    versions: List[Dict[int, int]]
    #: txid of the store that produced each version (0 for the initial).
    txids: List[int] = field(default_factory=list)
    #: instruction index that produced each version (-1 for the initial).
    producers: List[int] = field(default_factory=list)
    #: cumulative log-entry prefix the version's in-flight stores require
    #: (hardware schemes; 0 = unconstrained).
    needs: List[int] = field(default_factory=list)
    #: index of the newest version guaranteed durable.
    floor: int = 0
    #: newest version captured by a ``clwb`` since the last promotion.
    pending: Optional[int] = None
    #: newest fenced-but-not-pcommitted version (``requires_pcommit``).
    staged: Optional[int] = None

    @property
    def executed(self) -> int:
        return len(self.versions) - 1

    def content(self, version: int) -> Dict[int, int]:
        return self.versions[version]


@dataclass(frozen=True)
class HwEntry:
    """One hardware undo-log entry (Proteus pair / ATOM store-retire)."""

    block: int
    grain: int
    pre_image: Tuple[Tuple[int, int], ...]
    txid: int
    order: int

    def to_log_entry(self) -> LogEntry:
        return LogEntry(
            block=self.block,
            grain=self.grain,
            pre_image=dict(self.pre_image),
            txid=self.txid,
            order=self.order,
        )


@dataclass
class CommitMark:
    """One commit point: hardware ``tx-end`` or software logFlag clear.

    ``sealed`` flips once the commit's durability promise is made to the
    program: immediately for hardware (``tx-end`` retirement drains the
    mark), at the next persist fence (+``pcommit`` where required) for
    software — the Figure-2 step-4 fence is the point after which the
    application may rely on the transaction surviving any crash.
    """

    txid: int
    #: flag line and the version its clear produced (software only).
    line: Optional[int]
    version: Optional[int]
    sealed: bool = False


class StreamState:
    """Mutable symbolic machine state driven instruction by instruction."""

    def __init__(
        self,
        scheme: Scheme,
        profile: Profile,
        layout: ThreadLayout,
        initial_image: Optional[Dict[int, int]] = None,
    ) -> None:
        self.scheme = scheme
        self.profile = profile
        self.layout = layout
        self.memory: Dict[int, int] = dict(initial_image or {})
        self.initial_image: Dict[int, int] = dict(initial_image or {})
        #: initial words of each line not yet tracked, by line.
        self._initial_lines: Dict[int, Dict[int, int]] = {}
        for word, value in self.initial_image.items():
            self._initial_lines.setdefault(_line_of(word), {})[word] = value
        self.lines: Dict[int, LineHistory] = {}
        self._dirty_flush: Set[int] = set()
        self._staged_lines: Set[int] = set()
        self._last_load_value: int = 0
        #: log-load captures: instruction index -> 32 B block content.
        self._lr: Dict[int, Dict[int, int]] = {}
        self.open_txid: Optional[int] = None
        self.entries: List[HwEntry] = []
        self.fenced_entries: int = 0
        self._logged_blocks: Set[int] = set()
        self.commits: List[CommitMark] = []

    # -- line bookkeeping ------------------------------------------------------

    def _history(self, line: int) -> LineHistory:
        history = self.lines.get(line)
        if history is None:
            history = LineHistory(
                line=line,
                region=region_of(line, self.layout),
                versions=[self._initial_lines.pop(line, {})],
                txids=[0],
                producers=[-1],
                needs=[0],
            )
            self.lines[line] = history
        return history

    def _record_write(
        self, index: int, line: int, words: Dict[int, int], txid: int, need: int
    ) -> None:
        history = self._history(line)
        content = dict(history.versions[history.executed])
        content.update(words)
        if content == history.versions[history.executed]:
            return  # persist-equivalent: identical durable content
        previous_need = (
            history.needs[history.executed]
            if history.txids[history.executed] == txid
            else 0
        )
        history.versions.append(content)
        history.txids.append(txid)
        history.producers.append(index)
        history.needs.append(max(previous_need, need))

    # -- durability transitions ------------------------------------------------

    def _flush(self, line: int) -> None:
        history = self._history(line)
        captured = history.executed
        history.pending = (
            captured if history.pending is None else max(history.pending, captured)
        )
        self._dirty_flush.add(line)

    def _apply_sfence(self) -> None:
        for line in self._dirty_flush:
            history = self.lines[line]
            if history.pending is None:
                continue
            if self.profile.requires_pcommit:
                history.staged = (
                    history.pending
                    if history.staged is None
                    else max(history.staged, history.pending)
                )
                self._staged_lines.add(line)
            else:
                history.floor = max(history.floor, history.pending)
            history.pending = None
        self._dirty_flush.clear()
        self.fenced_entries = len(self.entries)
        if not self.profile.requires_pcommit:
            self._seal_commits()

    def _apply_pcommit(self) -> None:
        for line in self._staged_lines:
            history = self.lines[line]
            if history.staged is not None:
                history.floor = max(history.floor, history.staged)
                history.staged = None
        self._staged_lines.clear()
        self.fenced_entries = len(self.entries)
        self._seal_commits()

    def _seal_commits(self) -> None:
        for mark in self.commits:
            mark.sealed = True

    # -- instruction dispatch --------------------------------------------------

    def apply(self, index: int, instr: Instruction) -> None:
        """Advance the symbolic state over one executed instruction."""
        kind = instr.kind
        if kind is Kind.LOAD:
            self._last_load_value = self.memory.get(instr.addr, 0)
        elif kind is Kind.STORE:
            self._apply_store(index, instr)
        elif kind in (Kind.CLWB, Kind.CLFLUSHOPT):
            self._flush(_line_of(instr.addr))
        elif kind in (Kind.SFENCE, Kind.MFENCE):
            self._apply_sfence()
        elif kind is Kind.PCOMMIT:
            self._apply_sfence()
            self._apply_pcommit()
        elif kind is Kind.LOG_LOAD:
            block = instr.addr
            self._lr[index] = {
                word: self.memory.get(word, 0)
                for word in range(block, block + instr.size, WORD)
            }
        elif kind is Kind.LOG_FLUSH:
            self._apply_log_flush(index, instr)
        elif kind is Kind.TX_BEGIN:
            if self.open_txid is None:
                self.open_txid = instr.txid
                self.entries = []
                self.fenced_entries = 0
                self._logged_blocks = set()
        elif kind is Kind.TX_END:
            self._apply_sfence()
            self._apply_pcommit()
            if self.open_txid is not None:
                self.commits.append(
                    CommitMark(
                        txid=self.open_txid, line=None, version=None, sealed=True
                    )
                )
            self.open_txid = None
            self.entries = []
            self.fenced_entries = 0
            self._logged_blocks = set()

    def _apply_store(self, index: int, instr: Instruction) -> None:
        value = instr.value
        if value is None:
            # Log-copy idiom: the payload is whatever the paired load of
            # the data line just read.  Plain data stores carry explicit
            # values; a missing one means zero (functional-model rule).
            value = self._last_load_value if instr.tag == "log-copy" else 0
        words = {
            word: value for word in range(instr.addr, instr.addr + instr.size, WORD)
        }
        need = 0
        if self.open_txid is not None and instr.txid == self.open_txid:
            region = region_of(instr.addr, self.layout)
            if region == REGION_DATA:
                if self.scheme.is_sshl:
                    need = self._pair_need(instr)
                elif self.scheme.is_hardware:
                    self._atom_log(index, instr)
        # Commit marks: the software logFlag clear is the commit point.
        per_line: Dict[int, Dict[int, int]] = {}
        for word, word_value in words.items():
            per_line.setdefault(_line_of(word), {})[word] = word_value
        for line, line_words in per_line.items():
            self._record_write(index, line, line_words, instr.txid, need)
        self.memory.update(words)
        if (
            instr.tag == "logflag"
            and instr.value in (0, None)
            and self.scheme.is_software
        ):
            flag_line = _line_of(self.layout.logflag_addr)
            history = self._history(flag_line)
            self.commits.append(
                CommitMark(txid=instr.txid, line=flag_line, version=history.executed)
            )

    def _pair_need(self, instr: Instruction) -> int:
        """Highest entry order + 1 covering this Proteus store (its
        log-before-data edge), or 0 when no pair covers it."""
        need = 0
        grain = self.profile.coverage_grain
        first = instr.addr & ~(grain - 1)
        last = (instr.addr + instr.size - 1) & ~(grain - 1)
        blocks = set(range(first, last + grain, grain))
        for entry in self.entries:
            if entry.txid == self.open_txid and entry.block in blocks:
                need = max(need, entry.order + 1)
        return need

    def _atom_log(self, index: int, instr: Instruction) -> None:
        """ATOM logs the line at store retirement, before the store's own
        data can drain; the entry is durable by hardware construction."""
        for line in range(
            _line_of(instr.addr), _line_of(instr.addr + instr.size - 1) + 1, CACHE_LINE
        ):
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
                )
            )
        self.fenced_entries = len(self.entries)

    def _apply_log_flush(self, index: int, instr: Instruction) -> None:
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
            )
        )

    # -- per-position views ----------------------------------------------------

    def commits_executed(self) -> int:
        return len(self.commits)

    def commits_sealed(self) -> int:
        """Commit points whose durability promise has been made.

        Every frontier from here on must recover to at least this many
        committed transactions — a verdict below it is a durability
        violation even when the recovered image is internally consistent
        (e.g. a committed transaction silently rolled back because its
        flag clear or a data flush never persisted)."""
        return sum(1 for mark in self.commits if mark.sealed)

    def digest(self) -> Tuple[object, ...]:
        """Canonical key of the reachable crash-state set at this point.

        Two stream positions with equal digests expose identical
        frontier sets and recovery verdicts, so the checker enumerates
        only one of them (per-epoch frontier canonicalization: positions
        inside one epoch differ only where a tracked component moved).
        """
        line_part = tuple(
            (line, history.floor, history.executed)
            for line, history in sorted(self.lines.items())
        )
        return (
            line_part,
            len(self.entries),
            self.fenced_entries,
            self.open_txid,
            len(self.commits),
            self.commits_sealed(),
        )


def derive_candidates(
    ir: LintIR, layout: ThreadLayout, initial_image: Optional[Dict[int, int]] = None
) -> List[Dict[int, int]]:
    """Candidate durable images after 0..N committed transactions.

    Derived from the stream itself: transaction spans in program order,
    folding each span's data-region stores into the running image.  For
    clean lowered streams this equals the functional model's candidate
    list; mutated streams keep the *intended* candidates because the
    mutators perturb persists and log writes, not the data stores
    (a data store pushed outside every span drops out — exactly the
    durable state no committed prefix can explain).
    """
    candidates: List[Dict[int, int]] = [dict(initial_image or {})]
    image = dict(initial_image or {})
    last_value_of_load: int = 0
    for span in sorted(ir.spans, key=lambda s: s.begin):
        for index in range(span.begin, min(span.end + 1, len(ir.trace))):
            instr = ir.trace[index]
            if instr.kind is Kind.LOAD:
                last_value_of_load = image.get(instr.addr, 0)
            if instr.kind is not Kind.STORE:
                continue
            if region_of(instr.addr, layout) != REGION_DATA:
                continue
            value = instr.value
            if value is None:
                value = last_value_of_load if instr.tag == "log-copy" else 0
            for word in range(instr.addr, instr.addr + instr.size, WORD):
                image[word] = value
        candidates.append(dict(image))
    return candidates
