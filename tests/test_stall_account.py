"""The core's stall account against the traced span replay.

Each core charges every stalled cycle that falls inside one of its
transactions to the stall cause's attribution class (``OooCore.stall``),
so ``repro profile`` reads blocked cycles off an untraced run.  These
tests keep the replay of a traced run as the reference: per class,
summed over cores, the account of an untraced run (with link runs,
think-chain parking and fence holds) must equal
``attribution_totals(build_tx_spans(events))`` of a traced run of the
same cell, and its transaction count ``len(spans)``.

The matrix is every ``Scheme`` on every Table 2 workload at 1 and 2
threads, in three settings:

* no think chains at the default core;
* no think chains with a 4-entry ROB and fetch width 1, where back-to-
  back transactions open in a tick whose retirement or store release
  stalled;
* 200-instruction think chains, where cores park and fences are held,
  so the account takes those cycles in bulk.

A hand-built stream adds the one boundary the matrix never meets: a
dispatch stall in the tick that retires a transaction's last
instruction.  Only whole runs are compared: the replay cannot see the
end of a transaction a halt leaves open.
"""

from dataclasses import replace
from typing import Dict, List

import pytest

from repro.core.schemes import Scheme
from repro.cpu.ooo_core import OooCore
from repro.isa.instructions import store
from repro.isa.trace import InstructionTrace
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.obs import ATTRIBUTION_CLASSES, Tracer, attribution_totals, build_tx_spans
from repro.sim.config import SystemConfig, fast_nvm_config
from repro.sim.engine import Engine
from repro.sim.simulator import Simulator
from repro.sim.stats import Stats
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces
from tests.test_ooo_core import run_core

BENCHMARKS = ("QE", "HM", "SS", "AT", "BT", "RT")
SIZING = dict(seed=3, init_ops=16, sim_ops=4)

#: setting id -> (think instructions, core config overrides)
SETTINGS = {
    "think0": (0, {}),
    "think0-rob4-fetch1": (0, dict(rob_entries=4, fetch_width=1)),
    "think200": (200, {}),
}


def config(threads: int, core: Dict[str, int]) -> SystemConfig:
    base = fast_nvm_config(cores=threads)
    return replace(base, core=replace(base.core, **core)) if core else base


def account(cores: List[OooCore]) -> Dict[str, int]:
    return {
        name: sum(core.blocked[index] for core in cores)
        for index, name in enumerate(ATTRIBUTION_CLASSES)
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_account_matches_the_traced_span_replay(setting, workload, threads):
    think, core = SETTINGS[setting]
    traces = generate_traces(
        WORKLOADS[workload], threads=threads, think_instructions=think, **SIZING
    )
    mismatches: List[str] = []
    for scheme in Scheme:
        sim = Simulator(config(threads, core), scheme, traces)
        sim.run()
        tracer = Tracer()
        Simulator(config(threads, core), scheme, traces, tracer=tracer).run()
        spans = build_tx_spans(tracer.events)
        got = (account(sim.cores), sum(len(core.trace.transactions) for core in sim.cores))
        want = (attribution_totals(spans), len(spans))
        if got != want:
            mismatches.append(f"{scheme.value}: account {got}, replay {want}")
    assert not mismatches, mismatches


def test_think_chains_park_and_hold_inside_transactions(monkeypatch):
    """The think-chain setting takes the bulk paths while a transaction
    is open, so the matrix checks their charges too."""
    charged = {"unpark": 0, "charge_fence_wait": 0}

    def counting(name):
        original = getattr(OooCore, name)

        def wrapper(core, *args):
            before = sum(core.blocked)
            original(core, *args)
            charged[name] += sum(core.blocked) - before

        return wrapper

    for name in charged:
        monkeypatch.setattr(OooCore, name, counting(name))
    think, core = SETTINGS["think200"]
    for workload in ("QE", "HM"):
        traces = generate_traces(
            WORKLOADS[workload], threads=2, think_instructions=think, **SIZING
        )
        for scheme in (Scheme.PMEM, Scheme.PROTEUS):
            Simulator(config(2, core), scheme, traces).run()
    assert all(charged.values()), charged


def test_a_dispatch_stall_in_the_closing_tick_is_charged():
    """The tick that retires a transaction's last instruction can still
    stall: the retired store keeps the only store-queue slot until its
    write completes, so the next store stalls on ``sq`` in that tick,
    which the transaction's span holds."""
    engine, stats, tracer = Engine(), Stats(), Tracer()
    tracer.bind_clock(lambda: engine.cycle)
    sq1 = config(1, dict(store_queue_entries=1))
    memctrl = MemoryController(engine, sq1.memory, stats)
    hierarchy = CacheHierarchy(engine, sq1, memctrl, stats)
    trace = InstructionTrace(
        instructions=[store(0x1000, value=1, txid=1), store(0x2000, value=2)],
        transactions=[(0, 0)],
    )
    core = OooCore(0, engine, sq1.core, trace, hierarchy, memctrl, stats, tracer=tracer)
    run_core(engine, core)
    spans = build_tx_spans(tracer.events)
    assert [(span.begin, span.end) for span in spans] == [(0, 1)]
    assert [(e.ts, e.name) for e in tracer.events if e.cat == "stall"][0] == (1, "sq")
    assert account([core]) == attribution_totals(spans) == {"logging": 0, "memory": 1, "fence": 0}
