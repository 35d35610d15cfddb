"""``CacheHierarchy.warm`` against the per-line fill it replaces.

Warm-up installs a whole footprint per call: each level replays the
fill sequence on its own, and a line-aligned range that overwrites a
whole level builds only the lines that survive.  The oracle installs
the same addresses one at a time through the miss path's ``_install``
with clean data.  After every call both hierarchies must hold the same
lines in the same LRU order at every level, and the same counters with
the same values in the same order.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

import repro.mem.cache as cache_module
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.sim.config import CacheConfig, MemoryConfig, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats

BASE = 0x40000


def make(cores, l1, l2, l3):
    """A hierarchy whose levels have the given (sets, ways) geometries."""
    engine = Engine()
    stats = Stats()
    config = SystemConfig(
        cores=cores,
        l1=CacheConfig(l1[0] * l1[1] * 64, l1[1], 4),
        l2=CacheConfig(l2[0] * l2[1] * 64, l2[1], 12),
        l3=CacheConfig(l3[0] * l3[1] * 64, l3[1], 42),
        memory=MemoryConfig(read_latency=100, write_latency=300,
                            row_hit_latency=10, banks=2, controller_latency=20),
    )
    memctrl = MemoryController(engine, config.memory, stats)
    return engine, stats, CacheHierarchy(engine, config, memctrl, stats)


def per_line(hierarchy, core, lines):
    for addr in lines:
        hierarchy._install(core, addr & ~63, dirty=False)


def random_footprint(rng, capacity):
    """One warm call's lines: a range or a list, in one of five shapes."""
    shape = rng.choice(["long", "overlap", "list", "unaligned", "step"])
    start = BASE + 64 * rng.randrange(4 * capacity)
    if shape == "long":
        # Longer than every level, starting at any set.
        count = capacity + rng.randrange(1, 3 * capacity)
        return range(start, start + 64 * count, 64)
    if shape == "overlap":
        count = rng.randrange(1, 2 * capacity)
        return range(start, start + 64 * count, 64)
    if shape == "list":
        # Duplicates and unaligned addresses from a small window.
        return [
            BASE + rng.randrange(64 * 4 * capacity)
            for _ in range(rng.randrange(0, 3 * capacity))
        ]
    if shape == "unaligned":
        count = rng.randrange(1, 3 * capacity)
        start += rng.randrange(1, 64)
        return range(start, start + 64 * count, 64)
    count = rng.randrange(1, 3 * capacity)
    return range(start, start + 64 * count, rng.choice([32, 128, 192]))


def geometry(rng):
    return rng.randrange(1, 9), rng.randrange(1, 5)


@pytest.mark.parametrize("seed", range(30))
def test_warm_matches_per_line_install(seed):
    rng = random.Random(seed)
    for _ in range(100):
        cores = rng.randrange(1, 3)
        levels = [geometry(rng) for _ in range(3)]
        capacity = max(sets * ways for sets, ways in levels)
        __, stats, hierarchy = make(cores, *levels)
        __, ref_stats, reference = make(cores, *levels)
        for _call in range(rng.randrange(1, 5)):
            core = rng.randrange(cores)
            lines = random_footprint(rng, capacity)
            hierarchy.warm(core, lines)
            per_line(reference, core, lines)
            assert hierarchy.state_dict() == reference.state_dict(), (levels, lines)
            assert list(stats.counters.items()) == list(
                ref_stats.counters.items()
            ), (levels, lines)


def test_a_sweep_builds_only_the_lines_that_survive(monkeypatch):
    levels = [(4, 2), (8, 2), (16, 4)]
    built = []

    class CountingSet(OrderedDict):
        """A cache set that records every line inserted into it."""

        def __setitem__(self, addr, dirty):
            built.append(addr)
            super().__setitem__(addr, dirty)

    # Every set the hierarchy starts with, and every set a sweep builds,
    # counts its inserts.
    monkeypatch.setattr(cache_module, "OrderedDict", CountingSet)
    __, stats, hierarchy = make(2, *levels)
    monkeypatch.undo()
    __, ref_stats, reference = make(2, *levels)
    lines = range(BASE + 64 * 3, BASE + 64 * 1000, 64)
    monkeypatch.setattr(cache_module, "OrderedDict", CountingSet)
    hierarchy.warm(1, lines)
    monkeypatch.undo()
    assert len(built) == sum(sets * ways for sets, ways in levels)
    per_line(reference, 1, lines)
    assert hierarchy.state_dict() == reference.state_dict()
    assert list(stats.counters.items()) == list(ref_stats.counters.items())


@pytest.mark.parametrize("footprint", ["list", "range"])
def test_warm_refuses_to_evict_a_dirty_line(footprint):
    engine, stats, hierarchy = make(1, (8, 2), (16, 4), (64, 4))
    hierarchy.access(0, 0x2000, True, lambda: None)
    engine.run_until_idle()
    assert hierarchy.probe_dirty(0, 0x2000)
    stride = 8 * 64  # the dirty line's L1 set
    if footprint == "list":
        lines = [0x2000 + stride, 0x2000 + 2 * stride]
    else:
        lines = range(0x8000, 0x8000 + 64 * 64 * 4, 64)
    with pytest.raises(ValueError, match="dirty line 0x2000"):
        hierarchy.warm(0, lines)
