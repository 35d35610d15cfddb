"""Periodic occupancy sampler.

Turns instantaneous machine state into counter time series: every
``interval`` cycles the sampler reads per-core ROB / store-buffer /
load-queue / store-queue occupancy, controller-side WPQ / LPQ / device
backlog, and the LLT hit rate over the elapsed window, and emits one
``ph: "C"`` counter event per lane.  Perfetto renders these as stacked
occupancy tracks under the instruction timeline — the paper's Figures
11–12 (LPQ / LogQ sensitivity) as a live view.

The sampler only *reads* machine state (occupancy accessors and stats
counters); it never writes stats or schedules events, so an attached
sampler cannot perturb timing.
"""

from __future__ import annotations

from typing import Any

from repro.obs.tracer import TID_MC, Tracer


class OccupancySampler:
    """Samples one simulator's queues at a fixed cycle interval."""

    def __init__(self, tracer: Tracer, sim: Any, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1 cycle, got {interval}")
        self.tracer = tracer
        self.sim = sim
        self.interval = interval
        self._next_due = 0
        self._last_llt_hits = 0
        self._last_llt_misses = 0

    def maybe_sample(self) -> bool:
        """Sample when the clock has reached the next due cycle.

        Called once per run-loop iteration; the loop fast-forwards past
        idle stretches, so a sample fires at the first iteration at or
        after its due cycle rather than exactly on it.
        """
        cycle = self.sim.engine.cycle
        if cycle < self._next_due:
            return False
        self._next_due = cycle + self.interval
        self._sample_cores()
        self._sample_controller()
        self._sample_llt()
        return True

    def _sample_cores(self) -> None:
        for core in self.sim.cores:
            self.tracer.counter(
                "core",
                {
                    "rob": core.rob_used,
                    "sb": core.store_buffer.occupancy(),
                    "sb_inflight": core.store_buffer.in_flight(),
                    "lq": core.lq_used,
                    "sq": core.sq_used,
                },
                tid=core.core_id,
            )

    def _sample_controller(self) -> None:
        memctrl = self.sim.memctrl
        values = {
            "wpq": memctrl.wpq.occupancy(),
            "wpq_waiting": memctrl.wpq.waiting_admission(),
            "device": memctrl.device.outstanding(),
        }
        if memctrl.lpq is not None:
            values["lpq"] = memctrl.lpq.occupancy()
            values["lpq_waiting"] = memctrl.lpq.waiting_admission()
        self.tracer.counter("mc", values, tid=TID_MC)

    def _sample_llt(self) -> None:
        """LLT hit rate over the window since the previous sample."""
        stats = self.sim.stats
        hits = stats.get("llt.hits")
        misses = stats.get("llt.misses")
        delta_hits = hits - self._last_llt_hits
        delta_misses = misses - self._last_llt_misses
        self._last_llt_hits = hits
        self._last_llt_misses = misses
        total = delta_hits + delta_misses
        if total == 0 and hits + misses == 0:
            return  # scheme has no LLT; keep the track absent entirely
        rate = delta_hits / total if total else 0.0
        self.tracer.counter(
            "llt",
            {"hit_rate_pct": round(100.0 * rate, 2), "lookups": total},
            tid=TID_MC,
        )
