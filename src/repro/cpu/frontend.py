"""Pipeline front end: trace feed plus dispatch-stall attribution.

The paper's Figure 7 reports front-end stall cycles — cycles in which no
instruction could dispatch because a back-end resource (ROB, load/store
queue, log registers, LogQ) was exhausted.  The front end records one
stall per cycle, attributed to the first blocking resource encountered.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.instructions import Instruction
from repro.isa.trace import InstructionTrace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.stats import Stats


class Frontend:
    """Sequential instruction supply with stall accounting."""

    def __init__(
        self,
        trace: InstructionTrace,
        stats: Stats,
        core_id: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.trace = trace
        self.stats = stats
        self.core_id = core_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pc = 0
        self._stalled_this_cycle: Optional[str] = None
        #: cause -> its counter name, so a stalled cycle builds no string
        self._stall_counters: Dict[Optional[str], str] = {}

    def exhausted(self) -> bool:
        """True when the whole trace has been dispatched."""
        # len() of the list itself: InstructionTrace.__len__ is a Python
        # call.  Not cached, because a built trace may still grow.
        return self.pc >= len(self.trace.instructions)

    def peek(self) -> Optional[Instruction]:
        """The next instruction to dispatch, or None at end of trace."""
        if self.exhausted():
            return None
        return self.trace[self.pc]

    def consume(self) -> Instruction:
        """Dispatch the next instruction (advances the pc)."""
        instruction = self.trace[self.pc]
        self.pc += 1
        return instruction

    def note_stall(self, cause: str) -> None:
        """Record the blocking cause for this cycle (first cause wins)."""
        if self._stalled_this_cycle is None:
            self._stalled_this_cycle = cause

    def end_cycle(self, dispatched: int) -> None:
        """Close the cycle's stall accounting.

        A cycle counts as a front-end stall when nothing dispatched and
        the trace is not exhausted.
        """
        if dispatched == 0 and not self.exhausted():
            self.record_stall(self._stalled_this_cycle)
        self._stalled_this_cycle = None

    def record_stall(self, cause: Optional[str]) -> None:
        """Count one stall cycle against ``cause`` (None counts as "other")."""
        counter = self._stall_counters.get(cause)
        if counter is None:
            counter = self._stall_counters[cause] = f"stall.{cause or 'other'}"
        self.stats.add(counter)
        if self.tracer.enabled:
            self.tracer.instant("stall", cause or "other", tid=self.core_id, pc=self.pc)
