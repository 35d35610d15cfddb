"""Invariants the reference per-cycle loop relies on.

``Simulator.run`` checks and ticks only the cores that have not
finished, and ``OooCore`` decides dependence readiness from
``dyn_by_seq`` alone.  Both shortcuts are exact only under the
invariants pinned here.  The loop also skips idle cycles by jumping to
the next event, yet a halt or a cycle-triggered crash must still land
on its exact cycle; the last tests pin that.
"""

from __future__ import annotations

import pytest

from repro.core.atom import AtomAdapter
from repro.core.proteus import ProteusAdapter
from repro.core.schemes import Scheme
from repro.cpu.adapter import NullAdapter
from repro.cpu.ooo_core import OooCore
from repro.faults import FaultPlan, Trigger, run_crash_case
from repro.faults.tracker import ThreadFunctional
from repro.isa.instructions import (
    FENCE_KINDS,
    LOAD_QUEUE_KINDS,
    STORE_QUEUE_KINDS,
    Kind,
)
from repro.sim.config import fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import Simulator
from repro.workloads import HashMapWorkload, QueueWorkload
from repro.workloads.base import generate_traces


def build_sim(scheme, threads=1, workload=QueueWorkload, seed=7, sim_ops=6):
    traces = generate_traces(
        workload, threads=threads, seed=seed, init_ops=32, sim_ops=sim_ops
    )
    return Simulator(fast_nvm_config(cores=threads), scheme, traces)


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
        trace.thread_id: ThreadFunctional(trace, Scheme.PROTEUS) for trace in traces
    }
    plan = FaultPlan(seed=3, crash=Trigger("cycle", crash_cycle))
    result = run_crash_case(Scheme.PROTEUS, traces, models, plan)
    assert result.crashed
    assert result.machine.cycle == crash_cycle
