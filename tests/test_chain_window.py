"""The think-chain window against a loop that never parks.

``Simulator.run`` takes a core whose ROB holds only think-chain links
(one run), or a running chain's head run, completed entries and the
next chain's run (two runs), off its tick list and rebuilds the core's
state with ``OooCore.unpark`` (see docs/architecture.md, "Reference
loop hot path").  The oracle here is the same loop with
``OooCore.park`` patched never to park.  Whole runs must give the
oracle's ordered ``Stats`` and cycles, and a run stopped inside a
window — by a cycle halt, by an event that requests a halt (so after
that cycle's events fired), by a fault trigger or by the cycle budget —
must leave the oracle's machine state: the counters, the clock, the
pending-event cycles and every core's pc, ROB entries and their waiters
(a run of links read one link at a time, through
``OooCore.expanded_rob``), ``waiting_on_head`` and ``dyn_by_seq``.
Hand-built streams put each two-run shape, and each one ``park`` must
refuse, through a halt of either kind on every cycle around it.
"""

from __future__ import annotations

import collections
import dataclasses
from functools import partial

import pytest

from repro.core.schemes import Scheme
from repro.cpu.ooo_core import LinkRun, OooCore, State
from repro.faults import FaultPlan, Trigger
from repro.faults.harness import FaultInjector
from repro.faults.tracker import DurabilityTracker, ThreadStream
from repro.isa.instructions import Instruction, Kind, alu
from repro.isa.ops import Op
from repro.isa.trace import OpTrace
from repro.sim.config import fast_nvm_config
from repro.sim.engine import SimulationHalted
from repro.sim.simulator import Simulator
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces

SIZING = dict(init_ops=16, sim_ops=3)
MATRIX_WORKLOADS = ("QE", "HM", "BT", "SS")
THREADS = (1, 2, 4)


def halt_on(sim, halt=None, event=None):
    """Stop ``sim`` when its clock reaches cycle ``halt``, or from an
    event at cycle ``event``: the loop then stops once that cycle's
    events have all fired, before its ticks."""
    engine = sim.engine
    if halt is not None:
        engine.halt_at_cycle(halt)
    if event is not None:
        engine.schedule_at(event, partial(engine.request_halt, f"event at cycle {event}"))
    return sim


def build_sim(scheme, workload="QE", threads=1, plan=None, llt_entries=None):
    traces = generate_traces(WORKLOADS[workload], threads=threads, seed=7, **SIZING)
    config = fast_nvm_config(cores=threads)
    if llt_entries is not None:
        config = config.with_proteus(llt_entries=llt_entries, llt_ways=1)
    injector = None
    if plan is not None:
        models = {trace.thread_id: ThreadStream(trace, scheme) for trace in traces}
        injector = FaultInjector(plan, DurabilityTracker(models))
    return Simulator(config, scheme, traces, fault_injector=injector)


def machine_state(sim):
    engine = sim.engine
    cores = [
        (
            core.pc,
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


def two_run_shape(core):
    """How a ROB whose head and tail are distinct runs of latency-2
    links, the tail's record being the next instruction, stands against
    the two-run window; None for any other ROB.

    ``"idle tail"``: no tail link executes.  ``"pending middle"``: an
    entry between head and tail has not completed.  ``"off-phase tail"``:
    the tail's or the head's next completion is not due on the next
    cycle.  ``"lockstep"``: none of these.
    """
    rob = core.rob
    head, tail = rob[0], rob[-1]
    if (
        head is tail
        or type(head) is not LinkRun
        or type(tail) is not LinkRun
        or head.instr.latency != 2
        or tail.instr.latency != 2
        or tail.instr is not core.trace.instructions[core.pc]
    ):
        return None
    if not tail.running:
        return "idle tail"
    for entry in rob[1:-1]:
        if type(entry) is LinkRun:
            if entry.running or entry.done < entry.count:
                return "pending middle"
        elif entry.state is not State.COMPLETED:
            return "pending middle"
    # The heap is private; only the two runs' own completions are read.
    due = sorted(
        (when, callback is tail.callback)
        for when, _, callback in core.engine._heap
        if callback is head.callback or callback is tail.callback
    )
    lockstep = [(core.engine.cycle + 1, False), (core.engine.cycle + 1, True)]
    return "lockstep" if due == lockstep else "off-phase tail"


#: a parked window: the core, the cycle after whose tick it parked, the
#: cycle it is unparked on, and whether its ROB held two runs or one
Park = collections.namedtuple("Park", "core cycle until two_runs")
#: a rebuild: its cycle, whether that cycle's events had fired, whether
#: it fell inside the window, whether the head's link had completed,
#: and whether the window held two runs
Rebuild = collections.namedtuple("Rebuild", "cycle fired mid_window head_completed two_runs")
#: a park attempt on a ROB with a ``two_run_shape``: its cycle, that
#: shape, the head's links, and whether the core parked
Attempt = collections.namedtuple("Attempt", "cycle shape head_links parked")


class WindowLog:
    """Records every park, every rebuild of the runs it watches, and
    every park attempt on a two-run shape."""

    def __init__(self, monkeypatch):
        self.parks = []
        self.rebuilds = []
        self.attempts = []
        self._open = {}
        park, unpark = OooCore.park, OooCore.unpark

        def logged_park(core):
            shape = two_run_shape(core)
            head_links = core.rob[0].count if shape is not None else None
            until = park(core)
            if shape is not None:
                self.attempts.append(
                    Attempt(core.engine.cycle, shape, head_links, until is not None)
                )
            if until is not None:
                window = Park(core.core_id, core.engine.cycle, until, len(core.rob) > 1)
                self.parks.append(window)
                self._open[core] = window
            return until

        def logged_unpark(core, fired=False):
            window = self._open.pop(core)
            unpark(core, fired)
            cycle = core.engine.cycle
            self.rebuilds.append(
                Rebuild(
                    cycle, fired, cycle < window.until,
                    core.expanded_rob()[0][1] is State.COMPLETED, window.two_runs,
                )
            )

        monkeypatch.setattr(OooCore, "park", logged_park)
        monkeypatch.setattr(OooCore, "unpark", logged_unpark)

    def parked(self):
        """Each watched core that is parked, with its window."""
        return list(self._open.items())

    def halted_mid_window(self):
        return [rebuild for rebuild in self.rebuilds if rebuild.mid_window]

    def check_policy(self):
        """Every two-run attempt parked exactly when its runs were in
        lockstep and its head had a link to keep."""
        for attempt in self.attempts:
            expected = attempt.shape == "lockstep" and attempt.head_links >= 2
            assert attempt.parked == expected, attempt


def oracle(monkeypatch, make_sim, max_cycles=500_000_000):
    """``make_sim``'s outcome under a loop that never parks."""
    with monkeypatch.context() as patch:
        patch.setattr(OooCore, "park", lambda core: None)
        return outcome(make_sim(), max_cycles)


def windows(monkeypatch, make_sim):
    """Every window (a :data:`Park`) of a full run."""
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
    # SS lowers 213 instructions between chains, nearly the whole
    # 224-entry ROB, and never reaches the two-run shape.
    if workload != "SS":
        assert any(window.two_runs for window in log.parks), "no two-run window"
    log.check_policy()
    assert not log.halted_mid_window()
    assert len(log.rebuilds) == len(log.parks)


def halt_cycles(parks, per_core=2):
    """Cycles inside some windows of each shape, at both of their edges,
    and the cycle each window ends on."""
    cycles = set()
    for core, two_runs in {(window.core, window.two_runs) for window in parks}:
        own = [w for w in parks if w.core == core and w.two_runs == two_runs]
        for window in own[:: max(1, len(own) // per_core)][:per_core]:
            park, until = window.cycle, window.until
            middle = (park + until) // 2
            cycles |= {park + 1, park + 2, park + 3, middle, middle + 1, until - 1, until}
    return sorted(cycles)


def assert_both_phases(rebuilds):
    """Fired rebuilds landed on completion cycles (the head's link done)
    and between them."""
    head_completed = [rebuild.head_completed for rebuild in rebuilds if rebuild.fired]
    assert any(head_completed) and not all(head_completed)


@pytest.mark.parametrize(
    "scheme, threads",
    [(Scheme.PMEM, 1), (Scheme.PROTEUS, 2), (Scheme.ATOM, 2)],
    ids=lambda value: getattr(value, "value", f"{value}t"),
)
def test_cycle_halts_inside_windows_leave_the_oracle_state(monkeypatch, scheme, threads):
    """Halts by the clock, and by an event after the cycle's other events
    fired, on the same cycles."""
    def make_sim(**halt):
        return halt_on(build_sim(scheme, "HM", threads), **halt)

    cycles = halt_cycles(windows(monkeypatch, make_sim))
    log = WindowLog(monkeypatch)
    by_clock, by_event = [], []
    for cycle in cycles:
        for halt, reason, mid in (
            (dict(halt=cycle), f"cycle {cycle} reached", by_clock),
            (dict(event=cycle), f"event at cycle {cycle}", by_event),
        ):
            expected = oracle(monkeypatch, lambda: make_sim(**halt))
            assert expected[0] == ("halted", cycle, reason)
            start = len(log.rebuilds)
            assert outcome(make_sim(**halt)) == expected, halt
            mid += [rebuild for rebuild in log.rebuilds[start:] if rebuild.mid_window]
    for mid in (by_clock, by_event):
        assert len(mid) >= len(cycles) // 2
    assert not any(rebuild.fired for rebuild in by_clock)
    assert all(rebuild.fired for rebuild in by_event)
    assert any(rebuild.two_runs for rebuild in by_clock), "no clock halt in a two-run window"
    assert_both_phases([rebuild for rebuild in by_event if rebuild.two_runs])


#: (scheme, workload, threads, trigger kind, two-run halts).  The WPQ
#: triggers halt while events fire, the others during a tick.  The
#: cells are ones in which the trigger occurs while a core is parked; a
#: one-entry LLT makes every transaction evict.  The last field says
#: where the cell's trigger must halt inside two-run windows: nowhere
#: (its occurrences miss them), "inside", or "both phases" (on
#: completion cycles and between them).
TRIGGERS = [
    (Scheme.PMEM, "HM", 2, "wpq-drain", None),
    (Scheme.PMEM, "HM", 2, "wpq-admit", None),
    (Scheme.ATOM, "QE", 4, "wpq-drain", "inside"),
    (Scheme.PROTEUS, "QE", 4, "wpq-drain", "both phases"),
    (Scheme.PMEM_PCOMMIT, "HM", 2, "wpq-drain", "inside"),
    (Scheme.PMEM, "HM", 4, "wpq-admit", "both phases"),
    (Scheme.PMEM, "HM", 4, "fence-retire", "inside"),
    (Scheme.PROTEUS, "HM", 4, "lpq-flash-clear", "inside"),
    (Scheme.PROTEUS, "HM", 4, "llt-evict", "inside"),
]


def parked_occurrences(monkeypatch, make_sim, kind, limit):
    """Up to ``limit`` 1-based occurrences of trigger ``kind`` that
    happen while some core is parked, spread over the run and shared
    between the window shapes and phases (a completion cycle of the
    window or a cycle between two) they occur in."""
    with monkeypatch.context() as patch:
        log = WindowLog(patch)
        trip = FaultInjector._trip
        hits = collections.defaultdict(list)

        def logged_trip(injector, name):
            trip(injector, name)
            if name == kind:
                for core, window in log.parked():
                    completion = (core.engine.cycle - window.cycle) % 2 == 1
                    hits[window.two_runs, completion].append(injector.trigger_counts[name])

        patch.setattr(FaultInjector, "_trip", logged_trip)
        outcome(make_sim(None))
    picked = set()
    for found in hits.values():
        share = max(1, limit // len(hits))
        picked |= set(found[:: max(1, len(found) // share)][:share])
    return sorted(picked)


@pytest.mark.parametrize(
    "scheme, workload, threads, kind, two_run_halts", TRIGGERS,
    ids=[f"{s.value}-{w}-{t}t-{k}" for s, w, t, k, _ in TRIGGERS],
)
def test_fault_triggers_inside_windows_leave_the_oracle_state(
    monkeypatch, scheme, workload, threads, kind, two_run_halts
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
    two_runs = [rebuild for rebuild in mid if rebuild.two_runs]
    if two_run_halts:
        assert two_runs, "no halt landed inside a two-run window"
    if kind.startswith("wpq-"):
        # Raised while events fire: on a completion cycle the head's
        # completion has fired, on the cycle between it has not.
        assert all(rebuild.fired for rebuild in mid)
        assert_both_phases(mid)
        if two_run_halts == "both phases":
            assert_both_phases(two_runs)
    else:
        assert not any(rebuild.fired or rebuild.head_completed for rebuild in mid)


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
    mid = log.halted_mid_window()
    assert any(rebuild.two_runs for rebuild in mid), "no budget ran out in a two-run window"


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
        return halt_on(Simulator(config, Scheme.PMEM, traces), halt=halt)

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


# -- hand-built streams ------------------------------------------------------------

#: ROB size of the hand-built streams: a 60-link chain fills it.
STREAM_ROB = 16


def link():
    """A fresh latency-2 link record; every position it fills shares it."""
    return Instruction(Kind.ALU, latency=2, dep=1)


def chains(middle, tail_links, after=(alu(),)):
    """A 60-link chain, ``middle``, then ``tail_links`` links of a second
    chain and ``after``.  Each ``alu()`` of ``middle`` completes on the
    cycle after it dispatches."""
    return [alu(latency=2)] + [link()] * 60 + list(middle) + [link()] * tail_links + list(after)


def stream_sim(stream, fetch_width=5, **halt):
    """A one-core machine running ``stream`` as its lowered trace."""
    config = fast_nvm_config(cores=1)
    config = config.replace(
        core=dataclasses.replace(
            config.core, rob_entries=STREAM_ROB, fetch_width=fetch_width
        )
    )
    sim = Simulator(config, Scheme.PMEM_NOLOG, [OpTrace(thread_id=0)])
    sim.traces[0].extend(stream)
    return halt_on(sim, **halt)


def check_stream(monkeypatch, stream, fetch_width=5):
    """The whole run and a halt of each kind on every cycle from the
    first two-run attempt to two cycles past the last two-run window
    must match the oracle.  Returns the whole run's :class:`WindowLog`."""
    def make_sim(**halt):
        return stream_sim(stream, fetch_width, **halt)

    with monkeypatch.context() as patch:
        log = WindowLog(patch)
        assert outcome(make_sim()) == oracle(monkeypatch, make_sim)
    assert log.attempts, "no two-run attempt"
    log.check_policy()
    first = log.attempts[0].cycle
    last = max([w.until for w in log.parks if w.two_runs], default=log.attempts[-1].cycle)
    for cycle in range(first, last + 3):
        for halt in (dict(halt=cycle), dict(event=cycle)):
            expected = oracle(monkeypatch, lambda: make_sim(**halt))
            assert outcome(make_sim(**halt)) == expected, halt
    return log


def two_run_windows(log):
    """``(head links, completions)`` of each two-run window."""
    heads = {a.cycle: a.head_links for a in log.attempts if a.parked}
    return [(heads[w.cycle], (w.until - w.cycle) // 2) for w in log.parks if w.two_runs]


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_a_head_with_two_links_left_takes_one_completion(monkeypatch, fetch_width):
    """Thirteen entries between the chains leave the head two links when
    the next chain's first link dispatches: the window takes one."""
    log = check_stream(monkeypatch, chains([alu()] * 13, 8), fetch_width)
    assert (2, 1) in two_run_windows(log)


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_a_next_chain_shorter_than_the_head(monkeypatch, fetch_width):
    """The next chain's three links left to dispatch end the window
    while the head still holds many."""
    log = check_stream(monkeypatch, chains([alu()] * 3, 4), fetch_width)
    assert (12, 3) in two_run_windows(log)


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_a_trace_ending_inside_the_tail_chain(monkeypatch, fetch_width):
    """The window dispatches the trace's last link."""
    stream = chains([alu()] * 3, 6, after=())
    log = check_stream(monkeypatch, stream, fetch_width)
    assert (12, 5) in two_run_windows(log)


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_a_pending_middle_entry_refuses_the_window(monkeypatch, fetch_width):
    """A latency-9 ALU between the chains is still executing while the
    runs are in lockstep; once it completes, the core parks."""
    log = check_stream(monkeypatch, chains([alu(latency=9), alu()], 30), fetch_width)
    assert any(attempt.shape == "pending middle" for attempt in log.attempts)
    assert two_run_windows(log)


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_an_off_phase_tail_refuses_the_window(monkeypatch, fetch_width):
    """The next chain's first link waits on a latency-3 ALU, so its
    links complete on the cycles between the head's."""
    log = check_stream(monkeypatch, chains([alu(), alu(latency=3)], 30), fetch_width)
    assert any(attempt.shape == "off-phase tail" for attempt in log.attempts)


@pytest.mark.parametrize("fetch_width", (1, 5))
def test_an_idle_tail_refuses_the_window(monkeypatch, fetch_width):
    """The next chain's first link waits on a latency-9 ALU, so no link
    of it executes while the head runs down."""
    log = check_stream(monkeypatch, chains([alu(), alu(latency=9)], 30), fetch_width)
    assert any(attempt.shape == "idle tail" for attempt in log.attempts)
