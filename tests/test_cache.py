"""Unit tests for the set-associative cache."""

import pytest

from repro.mem.cache import Cache
from repro.sim.config import CacheConfig
from repro.sim.stats import Stats


def make_cache(size=1024, ways=2, line=64):
    return Cache(CacheConfig(size, ways, latency=1, line_bytes=line), "t", Stats())


def test_geometry():
    cache = make_cache(size=1024, ways=2)
    assert cache.config.sets == 8
    with pytest.raises(ValueError):
        CacheConfig(32, 2, 1).sets  # smaller than a line per way


def test_fill_and_lookup():
    cache = make_cache()
    assert cache.lookup(0x100) is None
    assert cache.fill(0x100) is None
    assert cache.lookup(0x100) is False  # resident and clean


def test_lru_eviction_order():
    cache = make_cache(size=128, ways=2)  # 1 set, 2 ways
    cache.fill(0x000)
    cache.fill(0x040)
    cache.lookup(0x000)          # refresh 0x000; LRU is now 0x040
    victim = cache.fill(0x080)
    assert victim == (0x040, False)


def test_dirty_victim_reported():
    cache = make_cache(size=128, ways=2)
    cache.fill(0x000, dirty=True)
    cache.fill(0x040)
    victim = cache.fill(0x080)
    assert victim == (0x000, True)


def test_refill_merges_dirty_bit():
    cache = make_cache()
    cache.fill(0x100, dirty=True)
    assert cache.fill(0x100, dirty=False) is None
    assert cache.lookup(0x100) is True  # dirty preserved


def test_mark_dirty_and_clean():
    cache = make_cache()
    assert not cache.mark_dirty(0x100)  # not resident
    cache.fill(0x100)
    assert cache.mark_dirty(0x100)
    assert cache.lookup(0x100) is True
    assert cache.clean(0x100)
    assert cache.lookup(0x100) is False
    assert not cache.clean(0x100)  # already clean


def test_invalidate_removes_line():
    cache = make_cache()
    cache.fill(0x100, dirty=True)
    assert cache.invalidate(0x100) is True  # it was dirty
    assert cache.lookup(0x100) is None
    assert cache.invalidate(0x100) is None
    cache.fill(0x140)
    assert cache.invalidate(0x140) is False  # resident and clean


def test_dirty_lines_enumeration():
    cache = make_cache()
    cache.fill(0x100, dirty=True)
    cache.fill(0x140)
    cache.fill(0x180, dirty=True)
    assert sorted(cache.dirty_lines()) == [0x100, 0x180]
    assert cache.resident_lines() == 3


def test_sets_are_independent():
    cache = make_cache(size=256, ways=1)  # 4 sets, direct mapped
    cache.fill(0x000)
    cache.fill(0x040)  # different set
    assert cache.lookup(0x000) is not None
    assert cache.lookup(0x040) is not None
    victim = cache.fill(0x100)  # same set as 0x000 (4 sets * 64B stride)
    assert victim == (0x000, False)
