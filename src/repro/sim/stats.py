"""Statistics registry.

A single :class:`Stats` instance is shared by every component of one
simulation.  Counters are plain dict entries so that new components can
add categories without central coordination; helpers expose the derived
quantities the paper's figures report (front-end stall cycles by cause,
NVM writes by category, LLT hit rate, ...).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable


@dataclass
class Stats:
    """Flat counter registry plus a few derived-metric helpers."""

    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 when never touched)."""
        return self.counters.get(name, 0)

    def set_max(self, name: str, value: int) -> None:
        """Track a high-water mark.

        The first observation always sticks, even when it is zero or
        negative — "never observed" and "observed at 0" must stay
        distinguishable (``get`` reports 0 for both, but the counter's
        presence in ``snapshot()``/``format()`` differs).
        """
        current = self.counters.get(name)
        if current is None or value > current:
            self.counters[name] = value

    # -- derived metrics ---------------------------------------------------

    def cycles(self) -> int:
        """Total cycles of the simulation (set by the simulator)."""
        return self.get("cycles")

    def instructions(self) -> int:
        """Committed instructions across all cores."""
        return self.get("retired_instructions")

    def ipc(self) -> float:
        """Instructions per cycle (0.0 when no cycles ran)."""
        cycles = self.cycles()
        return self.instructions() / cycles if cycles else 0.0

    def frontend_stalls(self) -> int:
        """Total front-end (dispatch) stall cycles, all causes."""
        return sum(
            value
            for name, value in self.counters.items()
            if name.startswith("stall.")
        )

    def stall_breakdown(self) -> Dict[str, int]:
        """Front-end stall cycles keyed by cause."""
        return {
            name[len("stall."):]: value
            for name, value in self.counters.items()
            if name.startswith("stall.")
        }

    def nvm_writes(self) -> int:
        """Total writes that reached the NVM device, all categories."""
        return sum(
            value
            for name, value in self.counters.items()
            if name.startswith("nvm.write.")
        )

    def nvm_write_breakdown(self) -> Dict[str, int]:
        """NVM writes keyed by category (data / log / truncation / ...)."""
        return {
            name[len("nvm.write."):]: value
            for name, value in self.counters.items()
            if name.startswith("nvm.write.")
        }

    def nvm_reads(self) -> int:
        """Total reads serviced by the NVM device."""
        return self.get("nvm.reads")

    def llt_miss_rate(self) -> float:
        """LLT miss rate over all lookups (0.0 when the LLT was unused)."""
        hits = self.get("llt.hits")
        misses = self.get("llt.misses")
        total = hits + misses
        return misses / total if total else 0.0

    def merge(self, other: "Stats") -> None:
        """Fold another Stats into this one (summing counters)."""
        for name, value in other.counters.items():
            self.counters[name] += value

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of every counter."""
        return dict(self.counters)

    def format(self, prefixes: Iterable[str] = ()) -> str:
        """Pretty-print counters, optionally filtered by prefix."""
        prefixes = tuple(prefixes)
        lines = []
        for name in sorted(self.counters):
            if prefixes and not name.startswith(prefixes):
                continue
            lines.append(f"{name:40s} {self.counters[name]:>14,d}")
        return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (1.0 for an empty sequence)."""
    product = 1.0
    count = 0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
        count += 1
    return product ** (1.0 / count) if count else 1.0
