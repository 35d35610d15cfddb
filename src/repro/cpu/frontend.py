"""Pipeline front end: trace feed plus dispatch-stall attribution.

The paper's Figure 7 reports front-end stall cycles — cycles in which no
instruction could dispatch because a back-end resource (ROB, load/store
queue, log registers, LogQ) was exhausted.  The core counts one stall
per tick that dispatched nothing while the trace still had instructions,
attributed to the first blocking resource it met.  A core parked in a
think-chain window adds its ``stall.rob`` ticks in bulk when the window
is rebuilt, and a core held at a fence adds its ``stall.rob`` ticks, one
per loop iteration it sat out, in bulk when it is released.  Cycles the
simulation loop jumps over count nothing yet, so a stall counts a loop
iteration, not a simulated cycle; ROADMAP.md tracks counting every
simulated cycle.
"""

from __future__ import annotations

from typing import Dict, Optional

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
        #: cause -> its counter name, so a stalled cycle builds no string
        self._stall_counters: Dict[str, str] = {}

    def exhausted(self) -> bool:
        """True when the whole trace has been dispatched."""
        # len() of the list itself: InstructionTrace.__len__ is a Python
        # call.  Not cached, because a built trace may still grow.
        return self.pc >= len(self.trace.instructions)

    def record_stall(self, cause: str) -> None:
        """Count one stall cycle against ``cause``."""
        counter = self._stall_counters.get(cause)
        if counter is None:
            counter = self._stall_counters[cause] = f"stall.{cause}"
        self.stats.add(counter)
        if self.tracer.enabled:
            self.tracer.instant("stall", cause, tid=self.core_id, pc=self.pc)
