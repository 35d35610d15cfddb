"""Property-based tests (hypothesis) on core structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.llt import LogLookupTable
from repro.core.log_area import LOG_ENTRY_BYTES, LogArea
from repro.core.logq import LogQueue
from repro.core.schemes import Scheme
from repro.isa.instructions import LOG_GRAIN, cache_line_of, expand_lines, expand_log_blocks
from repro.mem.cache import Cache
from repro.sim.config import CacheConfig
from repro.sim.stats import Stats

addresses = st.integers(min_value=0, max_value=1 << 24)
small_sizes = st.integers(min_value=1, max_value=512)


@given(addresses, small_sizes)
def test_expand_lines_covers_range(addr, size):
    lines = expand_lines(addr, size)
    # Every byte of the range falls in exactly one returned line.
    for byte in (addr, addr + size - 1, addr + size // 2):
        assert cache_line_of(byte) in lines
    # Lines are consecutive and unique.
    assert list(lines) == sorted(set(lines))
    assert all(line % 64 == 0 for line in lines)


@given(addresses, small_sizes)
def test_expand_log_blocks_covers_range(addr, size):
    blocks = expand_log_blocks(addr, size)
    assert all(block % LOG_GRAIN == 0 for block in blocks)
    assert blocks[0] <= addr < blocks[-1] + LOG_GRAIN
    assert blocks[0] <= addr + size - 1 < blocks[-1] + LOG_GRAIN


@given(st.lists(addresses, min_size=1, max_size=200))
def test_cache_never_exceeds_capacity(addrs):
    cache = Cache(CacheConfig(1024, 2, 1), "p", Stats())
    capacity = cache.config.sets * cache.config.ways
    for addr in addrs:
        cache.fill(cache_line_of(addr))
        assert cache.resident_lines() <= capacity


@given(st.lists(addresses, min_size=1, max_size=100))
def test_cache_most_recent_fill_always_resident(addrs):
    cache = Cache(CacheConfig(512, 2, 1), "p", Stats())
    for addr in addrs:
        line = cache_line_of(addr)
        cache.fill(line)
        assert cache.lookup(line, update_lru=False) is not None


@given(st.lists(addresses, min_size=1, max_size=300))
def test_llt_hit_implies_previous_probe_same_block(addrs):
    llt = LogLookupTable(entries=16, ways=4)
    seen_blocks = set()
    for addr in addrs:
        block = addr & ~(LOG_GRAIN - 1)
        hit = llt.lookup_insert(addr)
        if hit:
            # A hit can only happen for a block probed before (evictions
            # may turn would-be hits into misses, never the reverse).
            assert block in seen_blocks
        seen_blocks.add(block)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=300))
def test_log_area_slots_always_in_bounds(entries, allocations):
    area = LogArea(0x4000, entries * LOG_ENTRY_BYTES)
    for _ in range(allocations):
        slot = area.next_slot()
        assert area.contains(slot)
        assert slot % LOG_ENTRY_BYTES == 0


@given(st.lists(st.tuples(addresses, st.booleans()), min_size=1, max_size=60))
def test_logq_block_ordering_property(events):
    """While any flush to a block is pending, younger stores to that block
    are held; once all complete, they are free."""
    logq = LogQueue(entries=64)
    live = []
    seq = 0
    for addr, complete_one in events:
        seq += 1
        if complete_one and live:
            entry = live.pop(0)
            if logq.can_resolve(entry):
                logq.resolve(entry, 0x9000 + 64 * seq)
                logq.complete(entry)
            else:
                live.insert(0, entry)
        else:
            entry = logq.allocate(seq, addr, txid=1)
            if entry is not None:
                live.append(entry)
        pending_blocks = {entry.log_from for entry in live}
        probe = addr & ~(LOG_GRAIN - 1)
        if probe not in pending_blocks:
            assert not logq.blocks_store(probe, store_seq=seq + 1000)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_recovery_atomicity_property(data):
    """THE paper invariant: for any crash point, and any line versions
    and durable log prefix the persistency model allows there (which
    respects log-before-data), recovery lands exactly on a transaction
    boundary."""
    from repro.persistence.crash import images_equal
    from repro.verify.frontier import materialize, sample_frontiers
    from repro.workloads.queue_wl import QueueWorkload
    from tests.crashes import Walk, phases_for, recovered

    scheme = data.draw(st.sampled_from(
        [Scheme.PMEM, Scheme.PROTEUS, Scheme.PROTEUS_NOLWR, Scheme.ATOM]
    ))
    seed = data.draw(st.integers(min_value=0, max_value=5))
    wl = QueueWorkload(thread_id=0, seed=seed, init_ops=20, sim_ops=8)
    walk = Walk(wl.generate(), scheme)
    k = data.draw(st.integers(min_value=0, max_value=walk.transactions - 1))
    phase = data.draw(st.sampled_from(phases_for(scheme)))
    state = walk.state(walk.position(k, phase))
    frontiers = sample_frontiers(state, 16, data.draw(st.integers(0, 1 << 16)))
    frontier = data.draw(st.sampled_from(frontiers))
    expected_k = k + 1 if phase == "committed" else k
    assert images_equal(
        recovered(materialize(state, frontier)), walk.candidates[expected_k]
    )


@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=50))
def test_heap_alloc_free_roundtrip(sizes):
    from repro.workloads.heap import ALIGNMENT, PersistentHeap, ThreadAddressSpace

    heap = PersistentHeap(ThreadAddressSpace(0))
    live = []
    for size in sizes:
        addr = heap.alloc(size)
        assert addr % ALIGNMENT == 0
        for other_addr, other_size in live:
            a_end = addr + heap._size_class(size)
            b_end = other_addr + heap._size_class(other_size)
            assert addr >= b_end or other_addr >= a_end, "overlap"
        live.append((addr, size))
    for addr, size in live:
        heap.free(addr, size)
    assert heap.live_objects == 0
