"""Cycle clock plus event heap.

The core models tick once per cycle while they have work; memory-system
activity (bank service completions, queue drains, acknowledgments) is
event driven.  When every core is stalled waiting on memory, the engine
fast-forwards the clock to the next scheduled event instead of spinning,
which keeps long NVM write latencies cheap to simulate.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple


class SimulationHalted(RuntimeError):
    """Raised by the simulation loop when a requested halt fires.

    The fault-injection harness uses this to kill the machine mid-flight:
    the exception carries the cycle and reason, and the simulator's state
    (queues, caches, adapters) is left exactly as it was at that cycle for
    the crash snapshot.
    """

    def __init__(self, cycle: int, reason: str) -> None:
        super().__init__(f"simulation halted at cycle {cycle}: {reason}")
        self.cycle = cycle
        self.reason = reason


class Engine:
    """A deterministic discrete-event engine with a cycle counter.

    Events scheduled for the same cycle fire in scheduling order
    (a monotonically increasing sequence number breaks ties), which keeps
    every simulation bit-for-bit reproducible.
    """

    def __init__(self) -> None:
        self.cycle: int = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        #: set by :meth:`request_halt`; the simulation loop checks it and
        #: raises :class:`SimulationHalted` at the next safe point.
        self.halted: bool = False
        self.halt_reason: str = ""
        self._halt_cycle: Optional[int] = None

    # -- halting (fault injection) -------------------------------------------

    def request_halt(self, reason: str) -> None:
        """Ask the simulation loop to stop (crash) as soon as possible.

        Safe to call from inside event callbacks or core ticks; the loop
        finishes the current cycle's work and then raises.
        """
        if not self.halted:
            self.halted = True
            self.halt_reason = reason

    def halt_at_cycle(self, cycle: int) -> None:
        """Arrange for the clock to stop exactly at ``cycle``.

        Both :meth:`advance` and :meth:`fast_forward` clamp at the halt
        cycle, so a crash lands on the requested cycle even when the loop
        would otherwise have skipped over it.
        """
        self._halt_cycle = cycle

    def _clamp_to_halt(self, target: int) -> int:
        if (
            self._halt_cycle is not None
            and not self.halted
            and self.cycle < self._halt_cycle <= target
        ):
            self.request_halt(f"cycle {self._halt_cycle} reached")
            return self._halt_cycle
        return target

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.cycle + delay, next(self._sequence), callback))

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``cycle`` (must not be in the past)."""
        self.schedule(cycle - self.cycle, callback)

    def cancel(self, cycle: int, callbacks: Sequence[Callable[[], None]]) -> bool:
        """Remove, for each of ``callbacks``, the earliest-scheduled
        pending event at ``cycle`` that runs it (matched by identity).
        Returns False, removing nothing, unless every one is found.

        Linear in the number of pending events: the simulator calls it
        once per think-chain window it parks a core for (with the
        window's one or two link-run completions), not per cycle.
        """
        heap = self._heap
        found: List[Optional[Tuple[int, int, Callable[[], None]]]] = [None] * len(callbacks)
        for entry in heap:
            if entry[0] != cycle:
                continue
            for index, callback in enumerate(callbacks):
                if entry[2] is callback:
                    best = found[index]
                    if best is None or entry[1] < best[1]:
                        found[index] = entry
        if None in found:
            return False
        for entry in found:
            heap.remove(entry)
        heapq.heapify(heap)
        return True

    def pending_events(self) -> int:
        """Number of events not yet fired."""
        return len(self._heap)

    def pending_cycles(self) -> List[int]:
        """Cycle of every pending event, earliest first."""
        return sorted(when for when, __, __ in self._heap)

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def fire_due_events(self) -> int:
        """Fire every event scheduled at or before the current cycle.

        Returns the number of events fired.
        """
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= self.cycle:
            __, __, callback = heapq.heappop(heap)
            callback()
            fired += 1
        return fired

    def advance(self, cycles: int = 1) -> None:
        """Move the clock forward without firing events (clamps at a
        pending halt cycle)."""
        if cycles < 0:
            raise ValueError("cannot move the clock backwards")
        self.cycle = self._clamp_to_halt(self.cycle + cycles)

    def fast_forward(self, target: int) -> None:
        """Jump the clock forward to ``target`` (clamps at a pending halt
        cycle; never moves backwards)."""
        if target > self.cycle:
            self.cycle = self._clamp_to_halt(target)

    def advance_to_next_event(self) -> bool:
        """Jump the clock to the next pending event and fire all events due.

        Returns False when there is no pending event (clock unchanged).
        """
        target = self.next_event_cycle()
        if target is None:
            return False
        if target > self.cycle:
            self.cycle = target
        self.fire_due_events()
        return True

    def run_until_idle(self, max_cycles: int = 10_000_000) -> None:
        """Fire events until the heap drains; guards against runaway loops."""
        start = self.cycle
        while self._heap:
            if self.cycle - start > max_cycles:
                raise RuntimeError(
                    f"engine did not go idle within {max_cycles} cycles"
                )
            self.advance_to_next_event()
