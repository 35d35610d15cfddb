"""Crash images of clean lowered streams, for the recovery tests.

A transaction's protocol steps are positions in its lowered stream.  A
crash at one leaves each line at a version the persistency model
(:class:`~repro.persistence.stream.StreamState`) allows there, and
:func:`~repro.persistence.image.build_image` builds the image recovery
reads, the way both crash oracles build theirs.

Phases, per transaction:

* ``before`` — nothing of the transaction ran;
* ``logging`` / ``flagged`` (software logging) — Figure 2's step 1 ran
  but its fence did not retire / step 2's barrier retired;
* ``in-flight`` — the body and its flushes ran, their fence (hardware:
  ``tx-end``) did not retire: each written line is at its floor or, when
  ``data`` names it, at its newest version;
* ``flushed`` — as ``in-flight`` with every line at its newest version;
* ``committed`` — the commit point's barrier retired.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional

from repro.core.codegen import REGION_DATA, CodeGenerator
from repro.core.schemes import Scheme
from repro.isa.instructions import Kind
from repro.isa.trace import OpTrace
from repro.persistence.crash import CrashImage
from repro.persistence.image import build_image, stream_view
from repro.persistence.stream import StreamState
from repro.verify.containment import replay
from repro.verify.model import derive_candidates
from repro.workloads.heap import ThreadAddressSpace

PHASES = ("before", "in-flight", "flushed", "committed")
SOFTWARE_PHASES = ("logging", "flagged")


def phases_for(scheme: Scheme) -> List[str]:
    return list(PHASES) + (list(SOFTWARE_PHASES) if scheme.is_software else [])


class Walk:
    """One thread's op trace lowered under one scheme, with the
    candidate images derived from the lowered stream."""

    def __init__(self, op_trace: OpTrace, scheme: Scheme) -> None:
        self.scheme = scheme
        self.layout = ThreadAddressSpace(op_trace.thread_id).layout()
        self.trace = CodeGenerator(scheme, self.layout, op_trace.thread_id).lower_trace(
            op_trace
        )
        self.initial: Dict[int, int] = dict(op_trace.initial_image or {})
        self.candidates = derive_candidates(
            self.trace, scheme, self.layout, self.initial
        )

    @property
    def transactions(self) -> int:
        return len(self.trace.transactions)

    def state(self, stop: int) -> StreamState:
        """The model after every instruction before index ``stop``."""
        return replay(self.trace, self.scheme, self.initial, stop)

    def _barrier_end(self, fence: int) -> int:
        """One past a persist barrier starting at ``fence``."""
        following = self.trace[fence + 1] if fence + 1 < len(self.trace) else None
        if following is not None and following.kind is Kind.PCOMMIT:
            return fence + 2
        return fence + 1

    def position(self, k: int, phase: str) -> int:
        """The stream position (an instruction count) of ``phase`` in
        transaction ``k`` (0-based)."""
        first, last = self.trace.transactions[k]
        if phase == "before":
            return first
        if not self.scheme.is_software:
            if phase == "committed":
                return last + 1
            if phase in ("in-flight", "flushed"):
                return last
            raise ValueError(f"{phase} applies to software logging only")
        fences = [
            index
            for index in range(first, len(self.trace))
            if self.trace[index].kind is Kind.SFENCE
        ]
        step = {"logging": 0, "flagged": 1, "in-flight": 2, "flushed": 2, "committed": 3}
        fence = fences[step[phase]]
        return fence if phase in ("logging", "in-flight") else self._barrier_end(fence)

    def crash(
        self,
        k: int,
        phase: str,
        data: Optional[Collection[int]] = None,
        log: Optional[Collection[int]] = None,
    ) -> CrashImage:
        """The image a crash in ``phase`` of transaction ``k`` leaves.

        ``data`` names the lines at their newest version in ``in-flight``
        (default none); ``log`` the positions of the durable hardware
        log entries (default all of them).
        """
        state = self.state(self.position(k, phase))
        moved: Dict[int, int] = {}
        for line, history in state.lines.items():
            newest = phase == "flushed" or (
                phase == "in-flight" and data is not None and line in data
            )
            if newest and history.region == REGION_DATA:
                moved[line] = history.executed
        entries = stream_view(state).hw_entries
        durable = entries if log is None else [entries[i] for i in sorted(log) if i < len(entries)]
        return build_image(state, moved, list(durable))

    def written_lines(self, k: int) -> List[int]:
        """Data lines transaction ``k`` stores to, in first-store order."""
        first, last = self.trace.transactions[k]
        lines: List[int] = []
        txid = self.trace[first].txid
        for instr in self.trace.instructions[first:last + 1]:
            if instr.kind is Kind.STORE and instr.txid == txid and instr.tag == "data":
                line = instr.addr & ~63
                if line not in lines:
                    lines.append(line)
        return lines


def flattened(image: CrashImage) -> Dict[int, int]:
    """The whole memory image an overlay stands for."""
    whole = dict(image.base)
    whole.update(image.durable)
    return whole


def recovered(image: CrashImage) -> Dict[int, int]:
    """The whole image recovery repairs ``image`` to."""
    from repro.persistence.recovery import recover

    whole = dict(image.base)
    whole.update(recover(image))
    return whole
