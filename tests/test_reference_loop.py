"""Invariants the reference per-cycle loop relies on.

``Simulator.run`` checks and ticks only the cores that have not
finished, ``OooCore`` decides dependence readiness from ``dyn_by_seq``
and its link runs alone, a core waiting on its ROB head only counts
the stall, and the loop holds a core waiting on a fence its store
backlog holds and charges it only the stalls.  These shortcuts are
exact only under the invariants pinned here.  The loop
also skips idle cycles by jumping to the next event, yet a halt or a
cycle-triggered crash must still land on its exact cycle; the last
tests pin that.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.atom import AtomAdapter
from repro.core.proteus import ProteusAdapter
from repro.core.schemes import Scheme
from repro.cpu.adapter import NullAdapter
from repro.cpu.ooo_core import OooCore, State
from repro.faults import FaultPlan, Trigger, run_crash_case
from repro.faults.tracker import ThreadStream
from repro.isa.instructions import (
    FENCE_KINDS,
    LOAD_QUEUE_KINDS,
    STORE_QUEUE_KINDS,
    Kind,
    alu,
    load,
    store,
)
from repro.obs.tracer import Tracer
from repro.sim.config import CoreConfig, fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import Simulator
from repro.workloads import HashMapWorkload, QueueWorkload
from repro.workloads.base import generate_traces
from tests.test_ooo_core import build_core


def build_sim(scheme, threads=1, workload=QueueWorkload, seed=7, sim_ops=6, tracer=None):
    traces = generate_traces(
        workload, threads=threads, seed=seed, init_ops=32, sim_ops=sim_ops
    )
    return Simulator(fast_nvm_config(cores=threads), scheme, traces, tracer=tracer)


def machine_state(sim):
    engine = sim.engine
    return (
        list(sim.stats.snapshot().items()),
        engine.pending_events(),
        engine.next_event_cycle(),
        engine.cycle,
    )


def test_kind_flags_match_the_kind_sets():
    for kind in Kind:
        assert kind.uses_load_queue == (kind in LOAD_QUEUE_KINDS)
        assert kind.uses_store_queue == (kind in STORE_QUEUE_KINDS)
        assert kind.is_fence == (kind in FENCE_KINDS)


ADAPTER_SCHEMES = [
    (Scheme.PMEM, NullAdapter),
    (Scheme.PROTEUS, ProteusAdapter),
    (Scheme.ATOM, AtomAdapter),
]


@pytest.mark.parametrize(
    "scheme, adapter_cls", ADAPTER_SCHEMES, ids=[s.value for s, _ in ADAPTER_SCHEMES]
)
def test_ticking_a_finished_core_changes_nothing(monkeypatch, scheme, adapter_cls):
    """Mid-run, with the other core live and events pending, and after
    the run: a finished core's tick returns False and touches no Stats
    counter, pending event or clock.  The run's result is also the one
    an unprobed run produces."""
    reference = build_sim(scheme, threads=2, workload=HashMapWorkload).run()

    sim = build_sim(scheme, threads=2, workload=HashMapWorkload)
    assert all(type(core.adapter) is adapter_cls for core in sim.cores)
    original_tick = OooCore.tick
    mid_run_probes = []

    def tick_then_probe_finished(core):
        progressed = original_tick(core)
        for other in sim.cores:
            if other.finished():
                before = machine_state(sim)
                assert original_tick(other) is False
                assert machine_state(sim) == before
                if not all(c.finished() for c in sim.cores):
                    mid_run_probes.append(other.core_id)
        return progressed

    monkeypatch.setattr(OooCore, "tick", tick_then_probe_finished)
    result = sim.run()
    monkeypatch.undo()
    assert mid_run_probes, "no core finished while another was still live"

    for core in sim.cores:
        assert core.finished()
        before = machine_state(sim)
        assert core.tick() is False
        assert machine_state(sim) == before

    assert list(result.stats.counters.items()) == list(reference.stats.counters.items())
    assert result.cycles == reference.cycles


def probe_waiting_ticks(monkeypatch, machine):
    """Run the full tick in place of every waiting core's shortcut.

    The full tick must return False, add exactly one ``stall.rob`` and
    touch no other counter, pending event or the clock, and leave the
    core waiting again.  Returns the list of probed core ids, which
    grows as the run goes on.
    """
    original_tick = OooCore.tick
    probes = []

    def full_tick_when_waiting(core):
        if not core.waiting_on_head:
            return original_tick(core)
        counters, *rest = machine_state(machine)
        expected = dict(counters)
        expected["stall.rob"] = expected.get("stall.rob", 0) + 1
        core.waiting_on_head = False
        assert original_tick(core) is False
        assert machine_state(machine) == (list(expected.items()), *rest)
        assert core.waiting_on_head
        probes.append(core.core_id)
        return False

    monkeypatch.setattr(OooCore, "tick", full_tick_when_waiting)
    return probes


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_waiting_on_the_rob_head_only_counts_the_stall(monkeypatch, scheme):
    """Whenever a core is waiting on its ROB head, its full tick only
    counts the stall (see ``probe_waiting_ticks``).  Every completion
    clears the flag, a finished core is never waiting, and the probed
    run's result is the unprobed one."""
    reference = build_sim(scheme, threads=2, workload=HashMapWorkload).run()

    sim = build_sim(scheme, threads=2, workload=HashMapWorkload)
    completions = {"_mark_completed": 0, "_link_completed": 0}

    def clears_the_flag(name):
        original = getattr(OooCore, name)

        def completed(core, entry):
            original(core, entry)
            completions[name] += 1
            assert not core.waiting_on_head
            for other in sim.cores:
                assert not (other.finished() and other.waiting_on_head)

        return completed

    probes = probe_waiting_ticks(monkeypatch, sim)
    # A run's callback completes its links, so it is held to the same rule.
    for name in completions:
        monkeypatch.setattr(OooCore, name, clears_the_flag(name))
    result = sim.run()
    monkeypatch.undo()
    assert probes, "no core ever waited on its ROB head"
    assert all(completions.values()), completions

    for core in sim.cores:
        assert core.finished()
        assert not core.waiting_on_head
    assert list(result.stats.counters.items()) == list(reference.stats.counters.items())
    assert result.cycles == reference.cycles


def probe_fence_ticks(monkeypatch, machine):
    """Check every tick of a fence-waiting core against the hold's charge.

    An untraced loop holds such a core and charges each tick it sits
    out as one ``retire_blocked.fence``, plus one ``stall.rob`` unless
    the trace is exhausted (``OooCore.charge_fence_wait``).  So the full
    tick, run with the flag cleared, must return False, add exactly
    those counters, touch no other counter, pending event or the clock,
    and leave the core waiting again.  Returns the list of probed core
    ids, which grows as the run goes on.
    """
    original_tick = OooCore.tick
    probes = []

    def full_tick_when_waiting(core):
        if not core.waiting_on_fence:
            return original_tick(core)
        counters, *rest = machine_state(machine)
        expected = dict(counters)
        expected["retire_blocked.fence"] += 1
        if not core.exhausted():
            expected["stall.rob"] = expected.get("stall.rob", 0) + 1
        core.waiting_on_fence = False
        assert original_tick(core) is False
        assert machine_state(machine) == (list(expected.items()), *rest)
        assert core.waiting_on_fence
        probes.append(core.core_id)
        return False

    monkeypatch.setattr(OooCore, "tick", full_tick_when_waiting)
    return probes


#: The acknowledgments that can release a held fence.
FENCE_RELEASES = ("_store_written", "_flush_acked", "_pcommit_done")


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_waiting_on_a_fence_only_counts_the_stalls(monkeypatch, scheme):
    """Whenever a core waits on a fence held by its store backlog, its
    full tick only counts the stalls (see ``probe_fence_ticks``).  Each
    store, flush and pcommit acknowledgment clears the flag, a finished
    core is never waiting, and the probed run's result is the unprobed
    one.

    An untraced loop holds a fence-waiting core out of its tick list,
    so only a traced run ticks one; the reference is the untraced,
    holding run."""
    reference = build_sim(scheme, threads=2, workload=HashMapWorkload).run()

    sim = build_sim(scheme, threads=2, workload=HashMapWorkload, tracer=Tracer(capacity=1))
    # acknowledgments that found the flag set
    released = {name: 0 for name in FENCE_RELEASES}

    def clears_the_flag(name):
        original = getattr(OooCore, name)

        def acknowledged(core):
            released[name] += core.waiting_on_fence
            original(core)
            assert not core.waiting_on_fence

        return acknowledged

    probes = probe_fence_ticks(monkeypatch, sim)
    for name in FENCE_RELEASES:
        monkeypatch.setattr(OooCore, name, clears_the_flag(name))
    result = sim.run()
    monkeypatch.undo()
    if scheme in (Scheme.PMEM, Scheme.PMEM_PCOMMIT):
        assert probes, "no core ever waited on a fence"
        assert released["_flush_acked"], released
    if scheme is Scheme.PMEM_PCOMMIT:
        assert released["_pcommit_done"], released

    for core in sim.cores:
        assert core.finished()
        assert not core.waiting_on_fence
    assert list(result.stats.counters.items()) == list(reference.stats.counters.items())
    assert result.cycles == reference.cycles


def test_a_store_buffer_backlog_is_not_waiting(monkeypatch):
    """A full ROB behind a cold load does not make a core wait while
    retired stores are still queued to drain: the tick must drain them.
    Once the backlog is gone, the core waits until the load returns."""
    stream = [store(0x1000 + 8 * i, value=i) for i in range(20)]
    stream += [load(0x40000)] + [alu() for _ in range(60)]
    engine, stats, core = build_core(stream, core_config=CoreConfig(rob_entries=16))
    machine = SimpleNamespace(engine=engine, stats=stats)

    probes = probe_waiting_ticks(monkeypatch, machine)
    backlog_ticks = 0
    while not core.finished():
        assert engine.cycle < 100_000, "core did not finish"
        fired = engine.fire_due_events()
        progressed = core.tick()
        if (
            len(core.rob) == 16
            and core.rob[0].state is not State.COMPLETED
            and core.store_buffer.occupancy()
        ):
            backlog_ticks += 1
            assert not core.waiting_on_head
        if progressed or fired:
            engine.advance(1)
        else:
            assert engine.advance_to_next_event(), "deadlock"
    monkeypatch.undo()
    assert backlog_ticks, "the store buffer never held a backlog behind a full ROB"
    assert probes, "the core never waited on the cold load"
    assert stats.get("retired_instructions") == 81


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_dyn_by_seq_drains_after_run(scheme):
    """Every dispatched instruction leaves dyn_by_seq by the end of a
    run, so per-core tracking stays bounded by the in-flight window."""
    sim = build_sim(scheme, threads=2)
    sim.run()
    for core in sim.cores:
        assert core.dyn_by_seq == {}
        assert core.rob == []


def halted_run(halt_cycle):
    sim = build_sim(Scheme.PROTEUS, sim_ops=10)
    sim.engine.halt_at_cycle(halt_cycle)
    with pytest.raises(SimulationHalted) as excinfo:
        sim.run()
    return sim, excinfo.value


@pytest.mark.parametrize("halt_cycle", (1000, 7777, 20000))
def test_halt_lands_on_its_exact_cycle(halt_cycle):
    """A requested halt stops the run on precisely its cycle, even when
    the loop would otherwise jump past it, with reproducible counters."""
    sim, halt = halted_run(halt_cycle)
    assert halt.cycle == halt_cycle == sim.engine.cycle
    again, _ = halted_run(halt_cycle)
    assert list(sim.stats.counters.items()) == list(again.stats.counters.items())


@pytest.mark.parametrize("crash_cycle", (2000, 12345))
def test_cycle_crash_trigger_lands_on_its_exact_cycle(crash_cycle):
    traces = generate_traces(QueueWorkload, threads=1, seed=7, init_ops=12, sim_ops=6)
    models = {
        trace.thread_id: ThreadStream(trace, Scheme.PROTEUS) for trace in traces
    }
    plan = FaultPlan(seed=3, crash=Trigger("cycle", crash_cycle))
    result = run_crash_case(Scheme.PROTEUS, traces, models, plan)
    assert result.crashed
    assert result.machine.cycle == crash_cycle
