"""The think-chain window against a loop that never parks.

``Simulator.run`` takes a core whose ROB holds only think-chain links
off its tick list and rebuilds the core's state with
``OooCore.unpark`` (see docs/architecture.md, "Reference loop hot
path").  The oracle here is the same loop with ``OooCore.park``
patched never to park.  Whole runs must give the oracle's ordered
``Stats`` and cycles, and a run stopped inside a window — by a cycle
halt, by a fault trigger or by the cycle budget — must leave the
oracle's machine state: the counters, the clock, the pending-event
cycles and every core's pc, ROB entries and their waiters (a run of
links read one link at a time, through ``OooCore.expanded_rob``),
``waiting_on_head`` and ``dyn_by_seq``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.schemes import Scheme
from repro.cpu.ooo_core import OooCore, State
from repro.faults import FaultPlan, Trigger
from repro.faults.harness import FaultInjector
from repro.faults.tracker import DurabilityTracker, ThreadFunctional
from repro.isa.ops import Op
from repro.sim.config import fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import Simulator
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces

SIZING = dict(init_ops=16, sim_ops=3)
MATRIX_WORKLOADS = ("QE", "HM", "BT", "SS")
THREADS = (1, 2, 4)


def build_sim(scheme, workload="QE", threads=1, plan=None, llt_entries=None):
    traces = generate_traces(WORKLOADS[workload], threads=threads, seed=7, **SIZING)
    config = fast_nvm_config(cores=threads)
    if llt_entries is not None:
        config = config.with_proteus(llt_entries=llt_entries, llt_ways=1)
    injector = None
    if plan is not None:
        models = {trace.thread_id: ThreadFunctional(trace, scheme) for trace in traces}
        injector = FaultInjector(plan, DurabilityTracker(models))
    return Simulator(config, scheme, traces, fault_injector=injector)


def machine_state(sim):
    engine = sim.engine
    cores = [
        (
            core.frontend.pc,
            core.expanded_rob(),
            core.waiting_on_head,
            list(core.dyn_by_seq),
        )
        for core in sim.cores
    ]
    return list(sim.stats.counters.items()), engine.cycle, engine.pending_cycles(), cores


def outcome(sim, max_cycles=500_000_000):
    """How a run ended, and the machine state it left."""
    try:
        result = sim.run(max_cycles=max_cycles)
    except SimulationHalted as halt:
        ended = ("halted", halt.cycle, halt.reason)
    except RuntimeError as error:
        ended = ("error", str(error))
    else:
        ended = ("finished", result.cycles)
    return ended, machine_state(sim)


class WindowLog:
    """Records every park and every rebuild of the runs it watches."""

    def __init__(self, monkeypatch):
        self.parks = []
        #: per rebuild: (cycle, fired, mid-window, head completed)
        self.rebuilds = []
        self._until = {}
        park, unpark = OooCore.park, OooCore.unpark

        def logged_park(core):
            until = park(core)
            if until is not None:
                self.parks.append((core.core_id, core.engine.cycle, until))
                self._until[core] = until
            return until

        def logged_unpark(core, fired=False):
            until = self._until.pop(core)
            unpark(core, fired)
            cycle = core.engine.cycle
            self.rebuilds.append(
                (cycle, fired, cycle < until, core.expanded_rob()[0][1] is State.COMPLETED)
            )

        monkeypatch.setattr(OooCore, "park", logged_park)
        monkeypatch.setattr(OooCore, "unpark", logged_unpark)

    def parked(self):
        """True while some watched core is parked."""
        return bool(self._until)

    def halted_mid_window(self):
        return [r for r in self.rebuilds if r[2]]


def oracle(monkeypatch, make_sim, max_cycles=500_000_000):
    """``make_sim``'s outcome under a loop that never parks."""
    with monkeypatch.context() as patch:
        patch.setattr(OooCore, "park", lambda core: None)
        return outcome(make_sim(), max_cycles)


def windows(monkeypatch, make_sim):
    """``(core, park cycle, unpark cycle)`` of every window of a full run."""
    with monkeypatch.context() as patch:
        log = WindowLog(patch)
        outcome(make_sim())
    return log.parks


MATRIX = [
    (scheme, workload, threads)
    for scheme in Scheme
    for workload in MATRIX_WORKLOADS
    for threads in THREADS
]


@pytest.mark.parametrize(
    "scheme, workload, threads", MATRIX,
    ids=[f"{s.value}-{w}-{t}t" for s, w, t in MATRIX],
)
def test_runs_match_the_never_parking_loop(monkeypatch, scheme, workload, threads):
    def make_sim():
        return build_sim(scheme, workload, threads)

    expected = oracle(monkeypatch, make_sim)
    log = WindowLog(monkeypatch)
    assert outcome(make_sim()) == expected
    assert expected[0][0] == "finished"
    assert log.parks, "no core parked"
    assert not log.halted_mid_window()
    assert len(log.rebuilds) == len(log.parks)


def halt_cycles(parks, per_core=2):
    """Cycles inside some windows, at both of their edges, and the
    cycle each window ends on."""
    cycles = set()
    for core in {core for core, _, _ in parks}:
        own = [(p, u) for c, p, u in parks if c == core]
        for park, until in own[:: max(1, len(own) // per_core)][:per_core]:
            middle = (park + until) // 2
            cycles |= {park + 1, park + 2, park + 3, middle, middle + 1, until - 1, until}
    return sorted(cycles)


@pytest.mark.parametrize(
    "scheme, threads",
    [(Scheme.PMEM, 1), (Scheme.PROTEUS, 2), (Scheme.ATOM, 2)],
    ids=lambda value: getattr(value, "value", f"{value}t"),
)
def test_cycle_halts_inside_windows_leave_the_oracle_state(monkeypatch, scheme, threads):
    def make_sim(halt=None):
        sim = build_sim(scheme, "HM", threads)
        if halt is not None:
            sim.engine.halt_at_cycle(halt)
        return sim

    cycles = halt_cycles(windows(monkeypatch, make_sim))
    log = WindowLog(monkeypatch)
    for cycle in cycles:
        expected = oracle(monkeypatch, lambda: make_sim(cycle))
        assert expected[0] == ("halted", cycle, f"cycle {cycle} reached")
        assert outcome(make_sim(cycle)) == expected, cycle
    mid = log.halted_mid_window()
    assert len(mid) >= len(cycles) // 2
    assert not any(fired for _, fired, _, _ in mid)


#: (scheme, workload, threads, trigger kind).  The WPQ triggers halt
#: while events fire, the others during a tick.  The cells are ones in
#: which the trigger occurs while a core is parked; a one-entry LLT
#: makes every transaction evict.
TRIGGERS = [
    (Scheme.PMEM, "HM", 2, "wpq-drain"),
    (Scheme.PMEM, "HM", 2, "wpq-admit"),
    (Scheme.ATOM, "QE", 4, "wpq-drain"),
    (Scheme.PROTEUS, "QE", 4, "wpq-drain"),
    (Scheme.PMEM_PCOMMIT, "HM", 2, "wpq-drain"),
    (Scheme.PMEM, "HM", 4, "fence-retire"),
    (Scheme.PROTEUS, "HM", 4, "lpq-flash-clear"),
    (Scheme.PROTEUS, "HM", 4, "llt-evict"),
]


def parked_occurrences(monkeypatch, make_sim, kind, limit):
    """Up to ``limit`` 1-based occurrences of trigger ``kind`` that
    happen while some core is parked, spread over the run."""
    with monkeypatch.context() as patch:
        log = WindowLog(patch)
        trip = FaultInjector._trip
        hits = []

        def logged_trip(injector, name):
            trip(injector, name)
            if name == kind and log.parked():
                hits.append(injector.trigger_counts[name])

        patch.setattr(FaultInjector, "_trip", logged_trip)
        outcome(make_sim(None))
    return hits[:: max(1, len(hits) // limit)][:limit]


@pytest.mark.parametrize(
    "scheme, workload, threads, kind", TRIGGERS,
    ids=[f"{s.value}-{w}-{t}t-{k}" for s, w, t, k in TRIGGERS],
)
def test_fault_triggers_inside_windows_leave_the_oracle_state(
    monkeypatch, scheme, workload, threads, kind
):
    def make_sim(at):
        plan = FaultPlan(seed=3, crash=None if at is None else Trigger(kind, at))
        llt_entries = 1 if kind == "llt-evict" else None
        return build_sim(scheme, workload, threads, plan=plan, llt_entries=llt_entries)

    occurrences = parked_occurrences(monkeypatch, make_sim, kind, limit=12)
    assert occurrences, f"no {kind} occurrence while a core was parked"
    log = WindowLog(monkeypatch)
    for at in occurrences:
        expected = oracle(monkeypatch, lambda: make_sim(at))
        assert expected[0][0] == "halted"
        assert outcome(make_sim(at)) == expected, at
    mid = log.halted_mid_window()
    assert mid, "no halt landed inside a window"
    if kind.startswith("wpq-"):
        # Raised while events fire: on a completion cycle the head's
        # completion has fired, on the cycle between it has not.
        assert all(fired for _, fired, _, _ in mid)
        head_completed = [done for _, _, _, done in mid]
        assert any(head_completed) and not all(head_completed)
    else:
        assert not any(fired or done for _, fired, _, done in mid)


@pytest.mark.parametrize("threads", (1, 2), ids=lambda t: f"{t}t")
def test_a_budget_running_out_inside_a_window_matches(monkeypatch, threads):
    def make_sim():
        return build_sim(Scheme.PROTEUS, "QE", threads)

    parks = windows(monkeypatch, make_sim)
    log = WindowLog(monkeypatch)
    for budget in halt_cycles(parks, per_core=1):
        expected = oracle(monkeypatch, make_sim, max_cycles=budget)
        assert expected[0][0] == "error"
        assert f"budget of {budget} cycles at cycle {budget} " in expected[0][1]
        assert outcome(make_sim(), max_cycles=budget) == expected, budget
    assert log.halted_mid_window()


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_a_trace_ending_in_a_think_chain_matches(monkeypatch, fetch_width):
    """The last window dispatches the trace's last instruction, so its
    last tick stops on no full ROB; with one-wide dispatch no completion
    tick does.  Neither then waits on its head."""
    def make_sim(halt=None):
        traces = generate_traces(WORKLOADS["QE"], threads=1, seed=7, **SIZING)
        traces[0].append(Op.compute(1500, latency=2))
        config = fast_nvm_config(cores=1)
        config = config.replace(
            core=dataclasses.replace(config.core, fetch_width=fetch_width)
        )
        sim = Simulator(config, Scheme.PMEM, traces)
        if halt is not None:
            sim.engine.halt_at_cycle(halt)
        return sim

    parks = windows(monkeypatch, make_sim)
    log = WindowLog(monkeypatch)
    assert outcome(make_sim()) == oracle(monkeypatch, make_sim)
    cycles = halt_cycles(parks[-1:], per_core=1)
    for cycle in cycles:
        expected = oracle(monkeypatch, lambda: make_sim(cycle))
        assert outcome(make_sim(cycle)) == expected, cycle
    assert len(log.halted_mid_window()) == len(cycles) - 1
    pc, rob, waiting, _ = expected[1][3][0]
    assert pc == len(make_sim().traces[0]) and rob and not waiting
