"""Additional cache-hierarchy tests: warmup behavior, multi-level dirty
handling, and interaction with the WPQ."""


from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.sim.config import CacheConfig, MemoryConfig, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def make(cores=1, l1_kb=1, l2_kb=4, l3_kb=16):
    engine = Engine()
    stats = Stats()
    config = SystemConfig(
        cores=cores,
        l1=CacheConfig(l1_kb * 1024, 2, 4),
        l2=CacheConfig(l2_kb * 1024, 4, 12),
        l3=CacheConfig(l3_kb * 1024, 4, 42),
        memory=MemoryConfig(read_latency=100, write_latency=300,
                            row_hit_latency=10, banks=4, controller_latency=20),
    )
    mc = MemoryController(engine, config.memory, stats)
    return engine, stats, CacheHierarchy(engine, config, mc, stats)


def do_access(engine, hierarchy, addr, is_write=False, core=0):
    done = []
    hierarchy.access(core, addr, is_write, lambda: done.append(engine.cycle))
    engine.run_until_idle()
    return done


def test_warmup_capacity_follows_lru():
    engine, stats, hierarchy = make(l3_kb=4)  # 64-line L3
    lines = [0x100000 + 64 * i for i in range(200)]
    hierarchy.warm(0, lines)
    resident = hierarchy.l3.resident_lines()
    capacity = hierarchy.l3.config.sets * hierarchy.l3.config.ways
    assert resident == capacity
    # The most recently warmed lines survive.
    assert hierarchy.l3.lookup(lines[-1], update_lru=False) is not None
    assert hierarchy.l3.lookup(lines[0], update_lru=False) is None


def test_warm_never_writes_back():
    engine, stats, hierarchy = make(l3_kb=4)
    hierarchy.warm(0, range(0x200000, 0x200000 + 64 * 500, 64))
    engine.run_until_idle()
    assert stats.nvm_writes() == 0
    assert stats.get("hierarchy.writebacks") == 0


def test_dirty_data_survives_level_transitions():
    engine, stats, hierarchy = make()
    # Dirty a line in L1, force it down to L2 via conflict, then flush.
    stride = hierarchy.l1[0].config.sets * 64
    do_access(engine, hierarchy, 0x10000, is_write=True)
    do_access(engine, hierarchy, 0x10000 + stride)
    do_access(engine, hierarchy, 0x10000 + 2 * stride)  # evicts dirty line to L2
    assert hierarchy.probe_dirty(0, 0x10000)
    done = []
    hierarchy.flush_line(0, 0x10000, invalidate=False, thread_id=0,
                         on_durable=lambda: done.append(True))
    engine.run_until_idle()
    assert done == [True]
    assert stats.get("nvm.write.data") >= 1
    assert not hierarchy.probe_dirty(0, 0x10000)


def test_flush_cleans_all_levels():
    engine, stats, hierarchy = make()
    # Same line dirty in L1 and (an older copy) in L2 can't happen via
    # the access path, but flush_line must clean wherever dirt resides.
    hierarchy.l2[0].fill(0x30000, dirty=True)
    hierarchy.l1[0].fill(0x30000, dirty=True)
    done = []
    hierarchy.flush_line(0, 0x30000, invalidate=False, thread_id=0,
                         on_durable=lambda: done.append(True))
    engine.run_until_idle()
    # Still resident at both levels, and clean.
    assert hierarchy.l1[0].lookup(0x30000) is False
    assert hierarchy.l2[0].lookup(0x30000) is False
    # One coalesced WPQ write, not two.
    assert stats.get("wpq.admitted") == 1


def test_writeback_categorized_as_data():
    engine, stats, hierarchy = make(l1_kb=1, l2_kb=1, l3_kb=1)
    for i in range(300):
        do_access(engine, hierarchy, 0x40000 + 64 * i, is_write=True)
    engine.run_until_idle()
    assert stats.get("nvm.write.data") > 0
    assert stats.get("nvm.write.log") == 0


def test_accesses_from_different_cores_share_l3():
    engine, stats, hierarchy = make(cores=2)
    do_access(engine, hierarchy, 0x50000, core=0)
    before = stats.get("hierarchy.memory_reads")
    do_access(engine, hierarchy, 0x50000, core=1)
    assert stats.get("hierarchy.memory_reads") == before  # L3 hit, no new read
