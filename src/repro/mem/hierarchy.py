"""Three-level cache hierarchy with a shared L3 in front of the memory
controller.

Latencies follow Table 1: a hit at level *k* costs that level's access
latency (the table's numbers are load-to-use totals, so they are applied
directly, not summed).  A miss everywhere costs the L3 latency plus the
memory round trip.  Dirty evictions cascade: L1 victims merge into L2,
L2 victims into L3, L3 victims write back to the WPQ as data traffic.

Coherence: the paper's workloads give each thread private structures and
serialize transactions with locks, so cross-core sharing is absent; we
therefore model private L1/L2 per core and a shared L3 without a
coherence protocol (noted in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.mem.cache import Cache, Victim
from repro.mem.memctrl import MemoryController
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class CacheHierarchy:
    """Per-core L1/L2 plus shared L3 and the path to memory."""

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        memctrl: MemoryController,
        stats: Stats,
    ) -> None:
        self.engine = engine
        self.config = config
        self.memctrl = memctrl
        self.stats = stats
        self.l1 = [
            Cache(config.l1, f"l1.{core}", stats) for core in range(config.cores)
        ]
        self.l2 = [
            Cache(config.l2, f"l2.{core}", stats) for core in range(config.cores)
        ]
        self.l3 = Cache(config.l3, "l3", stats)

    # -- helpers ---------------------------------------------------------------

    def _writeback(self, line_addr: int, thread_id: int) -> None:
        self.stats.add("hierarchy.writebacks")
        self.memctrl.write(line_addr, category="data", thread_id=thread_id)

    def _handle_victim(
        self, victim: Optional[Victim], next_level: Optional[Cache], core: int
    ) -> None:
        """Push a dirty victim one level down (or to memory from the L3)."""
        if victim is None or not victim[1]:
            return
        if next_level is None:
            self._writeback(victim[0], core)
            return
        inner_victim = next_level.fill(victim[0], dirty=True)
        if next_level is self.l3:
            self._handle_victim(inner_victim, None, core)
        else:
            self._handle_victim(inner_victim, self.l3, core)

    def _install(self, core: int, line_addr: int, dirty: bool) -> None:
        """Fill a line into L1/L2/L3, cascading any dirty victims."""
        victim3 = self.l3.fill(line_addr)
        self._handle_victim(victim3, None, core)
        victim2 = self.l2[core].fill(line_addr)
        self._handle_victim(victim2, self.l3, core)
        victim1 = self.l1[core].fill(line_addr, dirty=dirty)
        self._handle_victim(victim1, self.l2[core], core)

    def warm(self, core: int, lines: Iterable[int]) -> None:
        """Install a footprint of clean lines functionally (no cycles) —
        warmup replay of the initialization phase's footprint.

        Leaves the caches and counters that ``_install(core, addr & ~63,
        dirty=False)`` per address, in order, would leave.  A clean fill
        cascades nothing, so each level replays the whole sequence on its
        own (:meth:`Cache.fill_clean`), which raises ``ValueError`` rather
        than evict a dirty line.
        """
        if isinstance(lines, range) and lines.step == 64:
            start = lines.start & ~63
            lines = range(start, start + 64 * len(lines), 64)
        else:
            lines = [addr & ~63 for addr in lines]
        evicted = []
        for order, cache in enumerate((self.l3, self.l2[core], self.l1[core])):
            evictions, first = cache.fill_clean(lines)
            if evictions:
                evicted.append((first, order, cache.name, evictions))
        # Per-line fills create each level's eviction counter at its first
        # evicting fill, and within one line the L3 fills before L2 and L1.
        for __, __, name, evictions in sorted(evicted):
            self.stats.add(f"{name}.evictions", evictions)

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable contents of every cache in the hierarchy."""
        return {
            "l1": [cache.state_dict() for cache in self.l1],
            "l2": [cache.state_dict() for cache in self.l2],
            "l3": self.l3.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore every cache from :meth:`state_dict` output."""
        l1_state, l2_state = state["l1"], state["l2"]
        if len(l1_state) != len(self.l1) or len(l2_state) != len(self.l2):
            raise ValueError(
                f"snapshot has {len(l1_state)} L1 / {len(l2_state)} L2 "
                f"caches, hierarchy has {len(self.l1)} / {len(self.l2)}"
            )
        for cache, cache_state in zip(self.l1, l1_state):
            cache.load_state(cache_state)
        for cache, cache_state in zip(self.l2, l2_state):
            cache.load_state(cache_state)
        self.l3.load_state(state["l3"])

    # -- access paths -------------------------------------------------------------

    def access(
        self,
        core: int,
        addr: int,
        is_write: bool,
        on_complete: Callable[[], None],
    ) -> None:
        """A demand load or the cache-write half of a drained store.

        State changes (fills, LRU, dirty bits) happen immediately; the
        callback fires after the appropriate latency.  Writes allocate
        (write-allocate, write-back).
        """
        line_addr = addr & ~63
        l1 = self.l1[core]
        l2 = self.l2[core]

        if is_write:
            hit = l1.mark_dirty(line_addr)
        else:
            hit = l1.lookup(line_addr) is not None
        if hit:
            self.stats.add("l1.hits")
            self.engine.schedule(self.config.l1.latency, on_complete)
            return

        dirty = l2.lookup(line_addr)
        if dirty is not None:
            self.stats.add("l2.hits")
            if dirty:
                l2.clean(line_addr)  # ownership moves up to L1
            dirty = dirty or is_write
            victim1 = l1.fill(line_addr, dirty=dirty)
            self._handle_victim(victim1, l2, core)
            self.engine.schedule(self.config.l2.latency, on_complete)
            return

        dirty = self.l3.lookup(line_addr)
        if dirty is not None:
            self.stats.add("l3.hits")
            if dirty:
                self.l3.clean(line_addr)
            dirty = dirty or is_write
            victim2 = l2.fill(line_addr)
            self._handle_victim(victim2, self.l3, core)
            victim1 = l1.fill(line_addr, dirty=dirty)
            self._handle_victim(victim1, l2, core)
            self.engine.schedule(self.config.l3.latency, on_complete)
            return

        # Miss everywhere: fetch from memory, then install.
        self.stats.add("hierarchy.memory_reads")
        self._install(core, line_addr, dirty=is_write)

        def on_data() -> None:
            self.engine.schedule(self.config.l3.latency, on_complete)

        self.memctrl.read(line_addr, on_data)

    def prefetch_for_store(self, core: int, addr: int) -> None:
        """Read-for-ownership prefetch issued when a store executes.

        Modern cores fetch the line at store address generation so the
        post-retirement write hits; without this, drain-time store misses
        would serialize the store buffer unrealistically.
        """
        line_addr = addr & ~63
        if self.l1[core].lookup(line_addr, update_lru=False) is not None:
            return
        if self.l2[core].lookup(line_addr, update_lru=False) is not None:
            return
        if self.l3.lookup(line_addr, update_lru=False) is not None:
            return
        self.stats.add("hierarchy.store_prefetches")
        self.stats.add("hierarchy.memory_reads")
        self._install(core, line_addr, dirty=False)
        self.memctrl.read(line_addr, lambda: None)

    def flush_line(
        self,
        core: int,
        addr: int,
        invalidate: bool,
        thread_id: int,
        on_durable: Callable[[], None],
        category: str = "data",
    ) -> None:
        """``clwb`` / ``clflushopt``: push a dirty line to the WPQ.

        ``on_durable`` fires once the write is accepted at the WPQ (or
        immediately, after the L1 probe latency, when the line is clean
        or absent everywhere).
        """
        line_addr = addr & ~63
        dirty = False
        for cache in (self.l1[core], self.l2[core], self.l3):
            if invalidate:
                if cache.invalidate(line_addr):
                    dirty = True
            elif cache.clean(line_addr):
                dirty = True
        if dirty:
            self.stats.add("hierarchy.flushes")
            self.memctrl.write(
                line_addr, category=category, thread_id=thread_id, on_durable=on_durable
            )
        else:
            self.stats.add("hierarchy.clean_flushes")
            self.engine.schedule(self.config.l1.latency, on_durable)

    def probe_dirty(self, core: int, addr: int) -> bool:
        """True when the line is dirty at any level reachable by the core."""
        line_addr = addr & ~63
        for cache in (self.l1[core], self.l2[core], self.l3):
            if cache.lookup(line_addr, update_lru=False):
                return True
        return False
