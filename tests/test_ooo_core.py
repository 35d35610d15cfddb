"""Unit tests for the out-of-order core model.

These drive the core directly with hand-built instruction traces against
a real memory system, checking the structural behaviors the paper's
results depend on: width-limited dispatch, in-order retirement, fence
semantics, store-buffer drain, and stall attribution.
"""


from repro.cpu.ooo_core import OooCore
from repro.isa.instructions import (
    Instruction,
    Kind,
    alu,
    clwb,
    load,
    pcommit,
    sfence,
    store,
)
from repro.isa.trace import InstructionTrace
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.sim.config import CacheConfig, CoreConfig, MemoryConfig, SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def build_core(instructions, core_config=None, warm=(), adapter=None, tracer=None):
    engine = Engine()
    stats = Stats()
    config = SystemConfig(
        cores=1,
        core=core_config or CoreConfig(),
        l1=CacheConfig(1024, 2, 4),
        l2=CacheConfig(4096, 4, 12),
        l3=CacheConfig(16384, 4, 42),
        memory=MemoryConfig(
            read_latency=100, write_latency=300, row_hit_latency=10,
            banks=4, controller_latency=20,
        ),
    )
    mc = MemoryController(engine, config.memory, stats)
    hierarchy = CacheHierarchy(engine, config, mc, stats)
    hierarchy.warm(0, warm)
    trace = InstructionTrace(thread_id=0)
    trace.extend(instructions)
    core = OooCore(
        0, engine, config.core, trace, hierarchy, mc, stats, adapter=adapter, tracer=tracer
    )
    return engine, stats, core


def run_core(engine, core, max_cycles=100000):
    while not core.finished():
        if engine.cycle > max_cycles:
            raise RuntimeError("core did not finish")
        fired = engine.fire_due_events()
        progress = core.tick()
        if progress or fired:
            engine.advance(1)
        else:
            assert engine.advance_to_next_event(), "deadlock"
    return engine.cycle


def test_alu_stream_retires_at_width():
    engine, stats, core = build_core([alu() for _ in range(50)])
    cycles = run_core(engine, core)
    assert stats.get("retired_instructions") == 50
    # 5-wide machine: 50 independent single-cycle ALUs take ~10-15 cycles.
    assert cycles < 25


def test_dependent_chain_serializes():
    instrs = [Instruction(Kind.ALU, latency=2, dep=1 if i else 0) for i in range(20)]
    engine, stats, core = build_core(instrs)
    cycles = run_core(engine, core)
    assert cycles >= 40  # 20 x latency 2, serialized


def test_independent_loads_overlap():
    # Loads to distinct lines in distinct banks: latency should be ~one
    # memory round trip, not the sum.
    instrs = [load(0x1000 + 64 * i) for i in range(4)]
    engine, stats, core = build_core(instrs)
    cycles = run_core(engine, core)
    assert cycles < 2 * (100 + 20 + 42 + 10)


def test_chained_loads_serialize():
    instrs = [load(0x1000)]
    for i in range(1, 4):
        instrs.append(load(0x1000 + 0x1000 * i, dep=1))
    engine, stats, core = build_core(instrs)
    cycles = run_core(engine, core)
    assert cycles > 3 * 100  # pointer chase: sequential round trips


def test_rob_fill_counts_frontend_stall():
    config = CoreConfig(rob_entries=8, fetch_width=5, retire_width=5)
    instrs = [load(0x1000)] + [alu(tag=str(i)) for i in range(40)]
    engine, stats, core = build_core(instrs, core_config=config)
    run_core(engine, core)
    assert stats.get("stall.rob") > 0


def test_store_queue_limit_stalls():
    config = CoreConfig(store_queue_entries=2)
    instrs = [store(0x1000 + 64 * i, value=i) for i in range(10)]
    engine, stats, core = build_core(instrs, core_config=config,
                                     warm=[0x1000 + 64 * i for i in range(10)])
    run_core(engine, core)
    assert stats.get("stall.sq") > 0
    assert stats.get("retired_instructions") == 10


def test_a_stall_is_counted_per_tick_that_dispatched_nothing():
    """A tick that dispatched something counts no stall, and neither
    does one after the whole trace has dispatched.  Any other tick
    counts exactly one stall, against the first blocking resource in
    attribution order: a full ROB wins over a full store queue."""
    config = CoreConfig(rob_entries=4, store_queue_entries=3)
    instrs = [load(0x40000)] + [store(0x1000 + 64 * i, value=i) for i in range(6)]
    engine, stats, core = build_core(instrs, core_config=config)
    counted = {"dispatched": 0, "rob and sq full": 0, "sq": 0, "exhausted": 0}
    while not core.finished():
        assert engine.cycle < 100_000, "core did not finish"
        fired = engine.fire_due_events()
        exhausted = core.exhausted()
        dispatched = stats.get("dispatched_instructions")
        stalls = stats.stall_breakdown()
        progressed = core.tick()
        added = {
            cause: count - stalls.get(cause, 0)
            for cause, count in stats.stall_breakdown().items()
            if count != stalls.get(cause, 0)
        }
        if stats.get("dispatched_instructions") > dispatched:
            assert added == {}
            counted["dispatched"] += 1
        elif exhausted:
            assert added == {}
            counted["exhausted"] += 1
        elif len(core.rob) >= config.rob_entries:
            assert added == {"rob": 1}
            if core.sq_used >= config.store_queue_entries:
                counted["rob and sq full"] += 1
        else:
            assert core.sq_used >= config.store_queue_entries
            assert added == {"sq": 1}
            counted["sq"] += 1
        if progressed or fired:
            engine.advance(1)
        else:
            assert engine.advance_to_next_event(), "deadlock"
    assert all(counted.values()), counted
    assert stats.get("retired_instructions") == len(instrs)


def test_sfence_waits_for_clwb_ack():
    warm = [0x1000]
    instrs = [store(0x1000, value=1), clwb(0x1000), sfence(), alu()]
    engine, stats, core = build_core(instrs, warm=warm)
    cycles = run_core(engine, core)
    # Store drain + clwb flush + controller trip: well above pure pipeline.
    assert cycles >= 20
    engine.run_until_idle()  # let the device finish the in-flight write
    assert stats.nvm_writes() == 1
    assert core.pending_pmem == 0


def test_pcommit_retires_async_but_gates_next_fence():
    warm = [0x1000]
    instrs = [
        store(0x1000, value=1), clwb(0x1000), sfence(), pcommit(),
        alu(), sfence(),
    ]
    engine, stats, core = build_core(instrs, warm=warm)
    run_core(engine, core)
    assert core.pending_pcommits == 0
    assert stats.get("retired_instructions") == 6


def test_stores_drain_in_order():
    warm = [0x1000, 0x2000]
    order = []
    instrs = [store(0x1000, value=1), store(0x2000, value=2)]
    engine, stats, core = build_core(instrs, warm=warm)

    original = core.hierarchy.access

    def spy(core_id, addr, is_write, on_complete):
        if is_write:
            order.append(addr)
        return original(core_id, addr, is_write, on_complete)

    core.hierarchy.access = spy
    run_core(engine, core)
    assert order == [0x1000, 0x2000]


def test_finished_requires_full_drain():
    warm = [0x1000]
    instrs = [store(0x1000, value=1)]
    engine, stats, core = build_core(instrs, warm=warm)
    run_core(engine, core)
    assert core.finished()
    assert core.store_buffer.is_empty()
    assert core.sq_used == 0
    assert core.lq_used == 0


def test_clflushopt_counts_as_pmem_op():
    from repro.isa.instructions import clflushopt

    warm = [0x1000]
    instrs = [store(0x1000, value=1), clflushopt(0x1000), sfence()]
    engine, stats, core = build_core(instrs, warm=warm)
    run_core(engine, core)
    engine.run_until_idle()
    assert stats.nvm_writes() == 1


def test_core_stays_within_the_shared_key_budget():
    """CPython 3.11 shares one class's instance-dict keys only up to 29
    attributes; at 30 every ``OooCore`` gets its own dict and the tick
    loop slows by about 5% (docs/architecture.md section 3)."""
    from repro.core.schemes import Scheme
    from repro.sim.config import fast_nvm_config
    from repro.sim.simulator import Simulator
    from repro.workloads import WORKLOADS
    from repro.workloads.base import generate_traces

    traces = generate_traces(WORKLOADS["QE"], threads=2, seed=1, init_ops=8, sim_ops=2)
    for scheme in (Scheme.PMEM, Scheme.PROTEUS):
        sim = Simulator(fast_nvm_config(cores=2), scheme, traces)
        assert all(len(vars(core)) <= 29 for core in sim.cores)
        sim.run()
        assert all(len(vars(core)) <= 29 for core in sim.cores)
