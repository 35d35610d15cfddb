"""Set-associative write-back cache with LRU replacement.

The cache tracks only line presence and dirtiness (line contents live
in the persistency model, :mod:`repro.persistence`, not here).  Each set maps a
resident line's address to its dirty bit, so a line is one dict entry
and no object.  Lookup, fill and eviction are synchronous state changes;
timing is applied by the hierarchy, which knows the per-level latencies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.sim.config import CacheConfig
from repro.sim.stats import Stats

#: An evicted line: its address and dirty bit.
Victim = Tuple[int, bool]


class Cache:
    """One cache level.

    Each set is an :class:`~collections.OrderedDict` mapping a line
    address to its dirty bit; insertion order is recency order (last =
    MRU).
    """

    def __init__(self, config: CacheConfig, name: str, stats: Stats) -> None:
        self.config = config
        self.name = name
        self.stats = stats
        # Geometry and counter names, computed once rather than per fill.
        self._line_bytes = config.line_bytes
        self._num_sets = config.sets
        self._ways = config.ways
        self._evictions = f"{name}.evictions"
        self._dirty_evictions = f"{name}.dirty_evictions"
        self.sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def _set_for(self, line_addr: int) -> "OrderedDict[int, bool]":
        return self.sets[(line_addr // self._line_bytes) % self._num_sets]

    def lookup(self, line_addr: int, update_lru: bool = True) -> Optional[bool]:
        """Return the resident line's dirty bit, or None when it is absent;
        refreshes recency on a hit."""
        cache_set = self._set_for(line_addr)
        dirty = cache_set.get(line_addr)
        if dirty is not None and update_lru:
            cache_set.move_to_end(line_addr)
        return dirty

    def fill(self, line_addr: int, dirty: bool = False) -> Optional[Victim]:
        """Install a line; returns the evicted victim as ``(addr, dirty)``,
        or None.

        Filling a line that is already resident refreshes recency and ORs
        in the dirty bit.
        """
        cache_set = self._set_for(line_addr)
        resident_dirty = cache_set.get(line_addr)
        if resident_dirty is not None:
            if dirty and not resident_dirty:
                cache_set[line_addr] = True
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if len(cache_set) >= self._ways:
            victim = cache_set.popitem(last=False)
            self.stats.add(self._evictions)
            if victim[1]:
                self.stats.add(self._dirty_evictions)
        cache_set[line_addr] = dirty
        return victim

    def fill_clean(self, lines: Sequence[int]) -> Tuple[int, int]:
        """Fill ``lines`` in order as clean lines, leaving the state that
        one :meth:`fill` per line would, without touching :class:`Stats`.

        Returns the number of evictions and the index of the first fill
        that evicted (-1 when none did).  A dirty victim would need a
        write-back, which is the hierarchy's job, so this raises
        ``ValueError`` instead of evicting one.

        A line-aligned ``range`` at least as long as the capacity, with
        none of its lines resident, hands every set at least ``ways`` new
        lines: every resident line is evicted, and only the range's last
        ``sets * ways`` lines survive, so only those are built.
        """
        num_sets, ways, line_bytes = self._num_sets, self._ways, self._line_bytes
        sets = self.sets
        if (
            isinstance(lines, range)
            and lines.step == line_bytes
            and lines.start % line_bytes == 0
            and len(lines) >= num_sets * ways
            and not any(addr in lines for cache_set in sets for addr in cache_set)
        ):
            return self._fill_sweep(lines)
        evictions = 0
        first = -1
        for index, line_addr in enumerate(lines):
            cache_set = sets[(line_addr // line_bytes) % num_sets]
            if line_addr in cache_set:
                cache_set.move_to_end(line_addr)
                continue
            if len(cache_set) >= ways:
                victim = next(iter(cache_set))
                if cache_set[victim]:
                    raise self._dirty_victim(victim)
                del cache_set[victim]
                if not evictions:
                    first = index
                evictions += 1
            cache_set[line_addr] = False
        return evictions, first

    def _fill_sweep(self, lines: range) -> Tuple[int, int]:
        """:meth:`fill_clean` of a range that overwrites every set.

        Consecutive lines map to consecutive sets, so set ``s`` receives
        its ``j``-th fill at index ``offset + j * sets``, where ``offset``
        is how far ``s`` lies past the range's first set.  A set holding
        ``k`` lines first evicts at its ``(ways - k)``-th fill.  The
        range's last ``sets * ways`` lines give every set its ``ways``
        survivors, every ``sets``-th line from the set's first.
        """
        num_sets, ways, line_bytes = self._num_sets, self._ways, self._line_bytes
        sets = self.sets
        count = len(lines)
        survivors = num_sets * ways
        start_set = (lines.start // line_bytes) % num_sets
        evictions = count - survivors
        first = -1
        for index, cache_set in enumerate(sets):
            for addr, dirty in cache_set.items():
                if dirty:
                    raise self._dirty_victim(addr)
            resident = len(cache_set)
            offset = (index - start_set) % num_sets
            fills = count // num_sets + (offset < count % num_sets)
            if resident + fills > ways:
                at = offset + (ways - resident) * num_sets
                if first < 0 or at < first:
                    first = at
            evictions += resident
        tail = lines[count - survivors :]
        first_set = (tail.start // line_bytes) % num_sets
        self.sets = [
            OrderedDict.fromkeys(tail[(index - first_set) % num_sets :: num_sets], False)
            for index in range(num_sets)
        ]
        return evictions, first

    def _dirty_victim(self, addr: int) -> ValueError:
        return ValueError(f"{self.name}: a clean fill would evict dirty line {addr:#x}")

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit on a resident line and refresh its recency;
        True when it was resident."""
        cache_set = self._set_for(line_addr)
        if line_addr not in cache_set:
            return False
        cache_set[line_addr] = True
        cache_set.move_to_end(line_addr)
        return True

    def clean(self, line_addr: int) -> bool:
        """Clear the dirty bit (clwb semantics); True when it was dirty."""
        cache_set = self._set_for(line_addr)
        if not cache_set.get(line_addr):
            return False
        cache_set[line_addr] = False
        return True

    def invalidate(self, line_addr: int) -> Optional[bool]:
        """Remove the line (clflushopt semantics); returns its dirty bit,
        or None when it was absent."""
        return self._set_for(line_addr).pop(line_addr, None)

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable residency state: per-set ``[addr, dirty]`` pairs in
        recency order (first = LRU, last = MRU), exactly the OrderedDict
        insertion order replacement relies on."""
        return {
            "sets": [
                [[addr, 1 if dirty else 0] for addr, dirty in cache_set.items()]
                for cache_set in self.sets
            ]
        }

    def load_state(self, state: dict) -> None:
        """Rebuild residency from :meth:`state_dict` output.

        Raises ``ValueError`` when the serialized geometry does not match
        this cache's configuration (a stale snapshot must not restore).
        """
        sets_state = state["sets"]
        if len(sets_state) != self.config.sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets_state)} sets, "
                f"cache has {self.config.sets}"
            )
        rebuilt: List["OrderedDict[int, bool]"] = []
        for index, entries in enumerate(sets_state):
            if len(entries) > self.config.ways:
                raise ValueError(
                    f"{self.name}: snapshot set {index} holds {len(entries)} "
                    f"lines, cache has {self.config.ways} ways"
                )
            cache_set: "OrderedDict[int, bool]" = OrderedDict()
            for addr, dirty in entries:
                line_addr = int(addr)
                if (line_addr // self.config.line_bytes) % self.config.sets != index:
                    raise ValueError(
                        f"{self.name}: line {line_addr:#x} does not map to "
                        f"snapshot set {index}"
                    )
                cache_set[line_addr] = bool(dirty)
            rebuilt.append(cache_set)
        self.sets = rebuilt

    def resident_lines(self) -> int:
        """Total lines currently resident (for tests and occupancy stats)."""
        return sum(len(cache_set) for cache_set in self.sets)

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty lines."""
        return [
            addr
            for cache_set in self.sets
            for addr, dirty in cache_set.items()
            if dirty
        ]
