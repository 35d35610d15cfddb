"""Link runs and fence holds against the traced loop.

An untraced core holds consecutive think-chain links of one record as
one ROB entry, a ``LinkRun``, and an untraced loop holds a core waiting
on a fence out of its tick list, charging its stalls on release (see
docs/architecture.md, "Reference loop hot path").  A live tracer keeps
every link a ``DynInstr``, never parks a core and ticks every
fence-waiting core, so a traced run is the oracle: whole runs must give
its ordered ``Stats`` and cycles, and a run halted on a seeded cycle,
or stopped by its cycle budget, must leave its machine state — the
counters, the clock, the pending-event cycles and every core's pc,
waiting flags, queues and ROB, one instruction at a time
(``OooCore.expanded_rob``).  In the software-logging cells, seeded
halts and budgets also land inside holds.  A budget error stops the
clock on the budget cycle, traced or not.  Hand-built streams step a
traced and an untraced core side by side and compare their states after
every tick.
"""

from __future__ import annotations

import collections
import random
from functools import partial

import pytest

from repro.core.schemes import Scheme
from repro.cpu.ooo_core import LinkRun, OooCore
from repro.isa.instructions import Instruction, Kind, alu, load
from repro.obs.tracer import Tracer
from repro.sim.config import CoreConfig, fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import Simulator
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces
from tests.test_ooo_core import build_core

SIZING = dict(init_ops=16, sim_ops=3)
WORKLOADS_UNDER_TEST = ("QE", "HM", "BT")
THREADS = (1, 2, 4)
HALTS_PER_CELL = 4
#: the software-logging schemes, whose cores wait on fences
HOLDING = (Scheme.PMEM, Scheme.PMEM_PCOMMIT)


def core_state(core):
    return dict(
        pc=core.pc,
        waiting_on_head=core.waiting_on_head,
        waiting_on_fence=core.waiting_on_fence,
        rob_used=core.rob_used,
        rob=core.expanded_rob(),
        lq=core.lq_used,
        sq=core.sq_used,
        store_buffer=core.store_buffer.occupancy(),
        in_flight=core.store_buffer.in_flight(),
        pending_pmem=core.pending_pmem,
        pending_pcommits=core.pending_pcommits,
    )


def machine_state(sim):
    engine = sim.engine
    return (
        list(sim.stats.counters.items()),
        engine.cycle,
        engine.pending_cycles(),
        [core_state(core) for core in sim.cores],
    )


def build_sim(scheme, workload, threads, traced, halt=None, event=None):
    """A machine that halts when its clock reaches cycle ``halt``, or
    from an event at cycle ``event``: the loop then stops once that
    cycle's events have all fired, before its ticks."""
    traces = generate_traces(WORKLOADS[workload], threads=threads, seed=7, **SIZING)
    tracer = Tracer(capacity=1) if traced else None
    sim = Simulator(fast_nvm_config(cores=threads), scheme, traces, tracer=tracer)
    engine = sim.engine
    if halt is not None:
        engine.halt_at_cycle(halt)
    if event is not None:
        engine.schedule_at(event, partial(engine.request_halt, f"event at cycle {event}"))
    return sim


def outcome(sim, max_cycles=500_000_000):
    """How a run ended, and the machine state it left."""
    try:
        result = sim.run(max_cycles=max_cycles)
    except SimulationHalted as halt:
        ended = ("halted", halt.cycle)
    except RuntimeError as error:
        ended = ("error", str(error))
    else:
        ended = ("finished", result.cycles)
    return ended, machine_state(sim)


#: a fence hold of an untraced run: the cycle of the tick that held the
#: core, the cycle it was released or settled on, and the loop
#: iterations it sat out
Hold = collections.namedtuple("Hold", "start end iterations")


class HoldLog:
    """Records every fence hold of the untraced runs it watches."""

    def __init__(self, monkeypatch):
        self.holds = []
        self._open = {}
        tick, charge = OooCore.tick, OooCore.charge_fence_wait

        def logged_tick(core):
            progressed = tick(core)
            if core.waiting_on_fence and not core.tracer.enabled:
                self._open[core] = core.engine.cycle
            return progressed

        def logged_charge(core, ticks):
            charge(core, ticks)
            start = self._open.pop(core)
            self.holds.append(Hold(start, core.engine.cycle, ticks))

        monkeypatch.setattr(OooCore, "tick", logged_tick)
        monkeypatch.setattr(OooCore, "charge_fence_wait", logged_charge)


def inside(hold):
    """Two cycles on which a stop lands while ``hold`` lasts: one
    between the tick that held the core and its release, and the
    release cycle itself, on which a halt by the clock or the budget
    stops the loop before the releasing event fires."""
    return [(hold.start + hold.end + 1) // 2, hold.end]


def held_at_stop(sim):
    """True when an untraced run stopped while it held a core: the core
    is still waiting on its fence."""
    return any(core.waiting_on_fence for core in sim.cores)


MATRIX = [
    (scheme, workload, threads)
    for scheme in Scheme
    for workload in WORKLOADS_UNDER_TEST
    for threads in THREADS
]


@pytest.mark.parametrize(
    "index, scheme, workload, threads",
    [(index, *cell) for index, cell in enumerate(MATRIX)],
    ids=[f"{s.value}-{w}-{t}t" for s, w, t in MATRIX],
)
def test_runs_and_halts_match_per_instruction_links(
    monkeypatch, index, scheme, workload, threads
):
    log = HoldLog(monkeypatch)
    traced = build_sim(scheme, workload, threads, traced=True)
    expected = outcome(traced)
    assert outcome(build_sim(scheme, workload, threads, traced=False)) == expected
    assert expected[0][0] == "finished"
    holds = list(log.holds)
    if scheme in HOLDING:
        assert holds, "no core was held at a fence"

    # Halts land in the cycle loop, before the final controller drain.
    # A software-logging cell also halts inside one seeded hold, by the
    # clock and by an event (after that cycle's events fired).
    rng = random.Random(index)
    cycles = range(1, traced.core_finish_cycle)
    stops = [dict(halt=halt) for halt in sorted(rng.sample(cycles, HALTS_PER_CELL))]
    if scheme in HOLDING:
        hold = rng.choice([hold for hold in holds if hold.iterations >= 2])
        stops += [{kind: cycle} for cycle in inside(hold) for kind in ("halt", "event")]
    held_runs = 0
    for stop in stops:
        (cycle,) = stop.values()
        expected = outcome(build_sim(scheme, workload, threads, traced=True, **stop))
        assert expected[0] == ("halted", cycle)
        sim = build_sim(scheme, workload, threads, traced=False, **stop)
        assert outcome(sim) == expected, stop
        held_runs += any(type(entry) is LinkRun for core in sim.cores for entry in core.rob)
        if stop in stops[HALTS_PER_CELL:] and "halt" in stop:
            assert held_at_stop(sim), stop
    assert held_runs, "no halt found a link run in a ROB"


@pytest.mark.parametrize("scheme", HOLDING, ids=lambda s: s.value)
def test_a_budget_running_out_inside_a_hold_matches(monkeypatch, scheme):
    """The cycle budget stops the run while a core is held, so the loop
    charges the core before the error reports the machine."""
    log = HoldLog(monkeypatch)
    outcome(build_sim(scheme, "HM", 2, traced=False))
    holds = [hold for hold in log.holds if hold.iterations >= 2]
    budgets = sorted({cycle for hold in holds[:: max(1, len(holds) // 3)][:3] for cycle in inside(hold)})
    for budget in budgets:
        expected = outcome(build_sim(scheme, "HM", 2, traced=True), max_cycles=budget)
        assert expected[0][0] == "error"
        assert f"budget of {budget} cycles" in expected[0][1]
        sim = build_sim(scheme, "HM", 2, traced=False)
        assert outcome(sim, max_cycles=budget) == expected, budget
        assert held_at_stop(sim), budget


#: budgets across the PMEM+pcommit QE run; many fall inside the loop's
#: jumps from an idle cycle to the next event
BUDGETS = range(1000, 9000, 97)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_budget_error_stops_the_clock_on_the_budget(traced):
    """Every jump stops at the budget, so a run that exceeds it reports
    the machine on the budget cycle, never past it."""
    ended, _ = outcome(build_sim(Scheme.PMEM_PCOMMIT, "QE", 1, traced=traced))
    assert ended[0] == "finished" and ended[1] > max(BUDGETS)
    for budget in BUDGETS:
        sim = build_sim(Scheme.PMEM_PCOMMIT, "QE", 1, traced=traced)
        (kind, message), _ = outcome(sim, max_cycles=budget)
        assert kind == "error", budget
        assert f"at cycle {budget} " in message
        assert sim.engine.cycle == budget


# -- hand-built streams ------------------------------------------------------------


def entry_shape(entry):
    if type(entry) is LinkRun:
        return dict(
            kind="run", instr=entry.instr, seq=entry.seq, count=entry.count,
            done=entry.done, running=entry.running,
            waiters=[w.seq for w in entry.waiters],
        )
    return dict(kind="dyn", seq=entry.seq, state=entry.state)


def step(stream, traced, core_config=None):
    """Tick one core through ``stream`` as ``run_core`` does; returns
    the machine state after every tick and, per tick, the ROB's entries
    (``entry_shape``)."""
    engine, stats, core = build_core(
        stream, core_config=core_config, tracer=Tracer(capacity=1) if traced else None
    )
    states, shapes = [], []
    while not core.finished():
        assert engine.cycle < 100_000, "core did not finish"
        fired = engine.fire_due_events()
        progressed = core.tick()
        states.append(
            (list(stats.counters.items()), engine.cycle, engine.pending_cycles(),
             core_state(core))
        )
        shapes.append([entry_shape(entry) for entry in core.rob])
        if progressed or fired:
            engine.advance(1)
        else:
            assert engine.advance_to_next_event(), "deadlock"
    assert stats.get("retired_instructions") == len(stream)
    return states, shapes


def runs_match_per_instruction_links(stream, core_config=None):
    """Step ``stream`` traced and untraced; the states must be equal
    after every tick.  Returns the untraced run's per-tick states and
    ROB shapes."""
    states, shapes = step(stream, traced=False, core_config=core_config)
    traced_states, traced_shapes = step(stream, traced=True, core_config=core_config)
    assert states == traced_states
    assert all(entry["kind"] == "dyn" for shape in traced_shapes for entry in shape)
    return states, shapes


def link(latency=2):
    """A fresh link record; every position it fills shares it."""
    return Instruction(Kind.ALU, latency=latency, dep=1)


def test_two_consecutive_runs_of_different_records():
    """The second run's first link waits on the first run's last link,
    so the second run waits in the first run's waiters."""
    first, second = link(), link(latency=3)
    stream = [alu(latency=2)] + [first] * 12 + [second] * 12 + [alu()]
    _, shapes = runs_match_per_instruction_links(stream)
    assert any(
        older["kind"] == younger["kind"] == "run"
        and older["instr"] is first
        and younger["instr"] is second
        and younger["seq"] in older["waiters"]
        and not younger["running"]
        for shape in shapes
        for older, younger in zip(shape, shape[1:])
    )


def test_a_load_whose_dep_reaches_into_a_run():
    """A load dispatched while the link it depends on executes waits in
    the run, and issues when that link completes."""
    stream = [alu(latency=2)] + [link()] * 10 + [load(0x40000, dep=4)] + [alu()] * 4
    load_seq, producer = 11, 7
    _, shapes = runs_match_per_instruction_links(stream)
    waited = [
        entry
        for shape in shapes
        for entry in shape
        if entry["kind"] == "run" and load_seq in entry["waiters"]
    ]
    assert waited
    assert all(entry["seq"] + entry["done"] <= producer for entry in waited)


def test_a_run_retires_across_retire_width_boundaries():
    """Links that completed behind a cold load retire a retire width at
    a time, leaving the rest of the run at the ROB head."""
    width = CoreConfig().retire_width
    stream = [load(0x40000), alu()] + [link(latency=1)] * 30 + [alu()]
    states, shapes = runs_match_per_instruction_links(stream)
    retired = [dict(counters).get("retired_instructions", 0) for counters, *_ in states]
    partial = [
        tick
        for tick in range(1, len(states))
        if retired[tick] - retired[tick - 1] == width
        and shapes[tick]
        and shapes[tick][0]["kind"] == "run"
        and shapes[tick][0]["done"] > 0
    ]
    assert len(partial) >= 2


def test_a_rob_full_of_one_run():
    """One run fills the ROB, ``rob_used`` counts its links, and the
    core waits on its head."""
    config = CoreConfig(rob_entries=16)
    chain = link()
    stream = [alu(latency=2)] + [chain] * 60 + [alu()]
    states, shapes = runs_match_per_instruction_links(stream, core_config=config)
    full = [
        core
        for (*_, core), shape in zip(states, shapes)
        if len(shape) == 1 and shape[0]["kind"] == "run"
        and shape[0]["count"] == config.rob_entries
    ]
    assert full
    for core in full:
        assert core["rob_used"] == config.rob_entries == len(core["rob"])
    assert any(core["waiting_on_head"] for core in full), "the core never waited on the run"
