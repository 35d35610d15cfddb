"""Unit tests for the cache hierarchy (L1/L2/L3 + memory path)."""


from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.sim.config import CacheConfig, MemoryConfig, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def make_hierarchy(cores=1):
    engine = Engine()
    stats = Stats()
    config = SystemConfig(
        cores=cores,
        l1=CacheConfig(1024, 2, 4),
        l2=CacheConfig(4096, 4, 12),
        l3=CacheConfig(16384, 4, 42),
        memory=MemoryConfig(
            read_latency=100, write_latency=300, row_hit_latency=10,
            banks=2, controller_latency=20,
        ),
    )
    mc = MemoryController(engine, config.memory, stats)
    hierarchy = CacheHierarchy(engine, config, mc, stats)
    return engine, stats, hierarchy


def access_latency(engine, hierarchy, addr, is_write=False, core=0):
    done = []
    start = engine.cycle
    hierarchy.access(core, addr, is_write, lambda: done.append(engine.cycle))
    engine.run_until_idle()
    return done[0] - start


def test_miss_then_l1_hit():
    engine, stats, hierarchy = make_hierarchy()
    first = access_latency(engine, hierarchy, 0x1000)
    assert first > 100  # memory round trip
    second = access_latency(engine, hierarchy, 0x1008)  # same line
    assert second == 4  # L1 hit
    assert stats.get("l1.hits") == 1


def test_warm_installs_clean_line():
    engine, stats, hierarchy = make_hierarchy()
    hierarchy.warm(0, [0x2000])
    assert access_latency(engine, hierarchy, 0x2000) == 4
    assert stats.get("hierarchy.memory_reads") == 0


def test_write_marks_dirty_and_flush_writes_back():
    engine, stats, hierarchy = make_hierarchy()
    hierarchy.warm(0, [0x2000])
    access_latency(engine, hierarchy, 0x2000, is_write=True)
    assert hierarchy.probe_dirty(0, 0x2000)
    done = []
    hierarchy.flush_line(0, 0x2000, invalidate=False, thread_id=0,
                         on_durable=lambda: done.append(True))
    engine.run_until_idle()
    assert done == [True]
    assert not hierarchy.probe_dirty(0, 0x2000)
    assert stats.get("nvm.write.data") == 1
    # Line stays resident after clwb.
    assert access_latency(engine, hierarchy, 0x2000) == 4


def test_clflushopt_invalidates():
    engine, stats, hierarchy = make_hierarchy()
    hierarchy.warm(0, [0x2000])
    access_latency(engine, hierarchy, 0x2000, is_write=True)
    done = []
    hierarchy.flush_line(0, 0x2000, invalidate=True, thread_id=0,
                         on_durable=lambda: done.append(True))
    engine.run_until_idle()
    # The line is gone from every cache level; the re-read is a miss
    # (it may still be forwarded from the WPQ, so just check it left
    # the hierarchy).
    before = stats.get("hierarchy.memory_reads")
    assert access_latency(engine, hierarchy, 0x2000) > 42
    assert stats.get("hierarchy.memory_reads") == before + 1


def test_flush_clean_line_is_cheap_and_writes_nothing():
    engine, stats, hierarchy = make_hierarchy()
    hierarchy.warm(0, [0x2000])
    done = []
    hierarchy.flush_line(0, 0x2000, invalidate=False, thread_id=0,
                         on_durable=lambda: done.append(True))
    engine.run_until_idle()
    assert done == [True]
    assert stats.nvm_writes() == 0
    assert stats.get("hierarchy.clean_flushes") == 1


def test_dirty_eviction_cascades_to_memory():
    engine, stats, hierarchy = make_hierarchy()
    # L1: 1KB/2-way/64B = 8 sets. Fill one set far beyond L2 and L3
    # capacity for that index so dirty victims eventually write back.
    stride = 8 * 64  # same L1 set
    for i in range(40):
        access_latency(engine, hierarchy, 0x10000 + i * stride, is_write=True)
    engine.run_until_idle()
    assert stats.get("hierarchy.writebacks") > 0
    assert stats.get("nvm.write.data") > 0


def test_store_prefetch_brings_line_in():
    engine, stats, hierarchy = make_hierarchy()
    hierarchy.prefetch_for_store(0, 0x3000)
    engine.run_until_idle()
    assert stats.get("hierarchy.store_prefetches") == 1
    assert access_latency(engine, hierarchy, 0x3000, is_write=True) == 4
    # Prefetching an already-resident line is a no-op.
    hierarchy.prefetch_for_store(0, 0x3000)
    assert stats.get("hierarchy.store_prefetches") == 1


def test_private_l1_per_core():
    engine, stats, hierarchy = make_hierarchy(cores=2)
    hierarchy.warm(0, [0x4000])
    assert access_latency(engine, hierarchy, 0x4000, core=0) == 4
    # Core 1 misses its L1/L2 but hits the shared L3.
    latency = access_latency(engine, hierarchy, 0x4000, core=1)
    assert latency == 42


def test_l2_hit_promotes_to_l1():
    engine, stats, hierarchy = make_hierarchy()
    # Fill the L1 set so the first line falls back to L2 only.
    stride = 8 * 64
    hierarchy.warm(0, [0x5000])
    hierarchy.warm(0, [0x5000 + stride])
    hierarchy.warm(0, [0x5000 + 2 * stride])  # evicts 0x5000 from L1
    latency = access_latency(engine, hierarchy, 0x5000)
    assert latency == 12  # L2 hit
    assert access_latency(engine, hierarchy, 0x5000) == 4  # now in L1
