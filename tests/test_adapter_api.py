"""Tests for the LoggingAdapter base API and NullAdapter behavior."""


from repro.cpu.adapter import LoggingAdapter, NullAdapter
from repro.cpu.ooo_core import DynInstr
from repro.isa.instructions import Kind, alu, clwb, load, sfence, store, tx_begin, tx_end
from tests.test_ooo_core import build_core, run_core


def test_base_adapter_is_inert():
    adapter = LoggingAdapter()
    dyn = DynInstr(store(0x100, value=1), 0)
    assert adapter.dispatch_blocked(dyn) is None
    assert adapter.start_execute(dyn) is False
    assert adapter.retire_blocked(dyn) is False
    assert adapter.store_release_blocked(0x100, 0) is False
    assert adapter.quiesced() is True
    adapter.on_retire(dyn)  # no-op, must not raise


def test_null_adapter_used_for_software_schemes():
    from repro.core.schemes import Scheme
    from repro.sim.config import fast_nvm_config
    from repro.sim.simulator import Simulator
    from repro.workloads.base import generate_traces
    from repro.workloads.queue_wl import QueueWorkload

    traces = generate_traces(QueueWorkload, threads=1, seed=2, init_ops=24, sim_ops=3)
    for scheme in (Scheme.PMEM, Scheme.PMEM_PCOMMIT, Scheme.PMEM_NOLOG,
                   Scheme.PMEM_STRICT):
        sim = Simulator(fast_nvm_config(cores=1), scheme, traces)
        assert isinstance(sim.cores[0].adapter, NullAdapter)


def test_hardware_schemes_get_real_adapters():
    from repro.core.atom import AtomAdapter
    from repro.core.proteus import ProteusAdapter
    from repro.core.schemes import Scheme
    from repro.sim.config import fast_nvm_config
    from repro.sim.simulator import Simulator
    from repro.workloads.base import generate_traces
    from repro.workloads.queue_wl import QueueWorkload

    traces = generate_traces(QueueWorkload, threads=1, seed=2, init_ops=24, sim_ops=3)
    config = fast_nvm_config(cores=1)
    assert isinstance(
        Simulator(config, Scheme.ATOM, traces).cores[0].adapter, AtomAdapter
    )
    for scheme in (Scheme.PROTEUS, Scheme.PROTEUS_NOLWR):
        adapter = Simulator(config, scheme, traces).cores[0].adapter
        assert isinstance(adapter, ProteusAdapter)


def test_adapter_bind_gives_core_access():
    adapter = NullAdapter()

    class FakeCore:
        pass

    core = FakeCore()
    adapter.bind(core)
    assert adapter.core is core


class RecordingAdapter(LoggingAdapter):
    """Inert adapter that records the seqs reaching each core-side hook."""

    def __init__(self):
        self.seen = {"dispatch": [], "start": [], "retire_blocked": [], "retire": []}

    def dispatch_blocked(self, dyn):
        self.seen["dispatch"].append(dyn.seq)
        return None

    def start_execute(self, dyn):
        self.seen["start"].append(dyn.seq)
        return False

    def retire_blocked(self, dyn):
        self.seen["retire_blocked"].append(dyn.seq)
        return False

    def on_retire(self, dyn):
        self.seen["retire"].append(dyn.seq)


class RecordingObserver:
    """Retire observer that records the seqs it sees, per core."""

    def __init__(self):
        self.seen = []

    def on_retire(self, core_id, dyn):
        self.seen.append((core_id, dyn.seq))


def test_alu_instructions_never_reach_an_adapter_hook():
    """The core calls the dispatch, execute and retire hooks and the
    retire observer for every other kind, and for no ALU instruction."""
    stream = [
        alu(), tx_begin(1), load(0x1000), alu(latency=2), store(0x2000, value=1),
        alu(), clwb(0x2000), sfence(), alu(), tx_end(1), alu(),
    ]
    adapter = RecordingAdapter()
    observer = RecordingObserver()
    engine, stats, core = build_core(stream, adapter=adapter)
    core.retire_observer = observer
    run_core(engine, core)

    assert stats.get("retired_instructions") == len(stream)
    non_alu = [seq for seq, instr in enumerate(stream) if instr.kind is not Kind.ALU]
    assert {instr.kind for instr in stream} - {Kind.ALU} == {
        Kind.TX_BEGIN, Kind.LOAD, Kind.STORE, Kind.CLWB, Kind.SFENCE, Kind.TX_END,
    }
    assert adapter.seen["dispatch"] == non_alu
    assert sorted(adapter.seen["start"]) == non_alu
    assert adapter.seen["retire_blocked"] == non_alu
    assert adapter.seen["retire"] == non_alu
    assert observer.seen == [(0, seq) for seq in non_alu]
