"""Common workload harness.

A workload owns a :class:`~repro.workloads.heap.PersistentHeap`, a seeded
RNG, and a transaction recorder.  Subclasses implement data-structure
operations by calling the recorder helpers (``rec_read`` / ``rec_write``
/ ``rec_compute`` / ``log_candidate``) while mutating their in-memory
structures; the harness packages each operation into a
:class:`~repro.isa.ops.TxRecord`.

The harness also maintains a *golden image* — the final value of every
word ever stored — so the persistency model and recovery tests can
validate results against it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.workloads.heap import PersistentHeap, ThreadAddressSpace


class Workload:
    """Base class for the Table 2 benchmarks."""

    #: paper abbreviation; subclasses override.
    name = "??"
    #: paper defaults (Table 2); subclasses override.
    default_init_ops = 1000
    default_sim_ops = 500

    #: non-transactional app work between operations (reading the op from
    #: the input list, key parsing, lock acquire/release, allocator
    #: bookkeeping), in ALU instructions, lowered as a dependent chain.
    think_instructions = 300
    #: per-instruction latency of the think chain.
    think_latency = 2

    def __init__(
        self,
        thread_id: int = 0,
        seed: int = 1,
        init_ops: Optional[int] = None,
        sim_ops: Optional[int] = None,
        think_instructions: Optional[int] = None,
    ) -> None:
        self.thread_id = thread_id
        self.space = ThreadAddressSpace(thread_id)
        self.heap = PersistentHeap(self.space)
        self.rng = random.Random((seed << 8) ^ thread_id)
        self.init_ops = self.default_init_ops if init_ops is None else init_ops
        self.sim_ops = self.default_sim_ops if sim_ops is None else sim_ops
        if think_instructions is not None:
            self.think_instructions = think_instructions
        self.golden: Dict[int, int] = {}
        self._recording: Optional[TxRecord] = None
        self._next_txid = 1
        self._prepared = False
        self._ops_emitted = 0

    # -- recording helpers ---------------------------------------------------------

    def begin_tx(self) -> TxRecord:
        """Open a transaction record; operations append to it."""
        if self._recording is not None:
            raise RuntimeError("nested transactions are not supported")
        self._recording = TxRecord(txid=self._next_txid)
        self._next_txid += 1
        return self._recording

    def end_tx(self) -> TxRecord:
        """Close and return the open transaction record."""
        tx = self._recording
        if tx is None:
            raise RuntimeError("end_tx without begin_tx")
        self._recording = None
        return tx

    def _require_tx(self) -> TxRecord:
        if self._recording is None:
            raise RuntimeError("operation recorded outside a transaction")
        return self._recording

    def rec_read(self, addr: int, size: int = 8, chained: bool = False) -> None:
        """Record a transactional read."""
        self._require_tx().body.append(Op.read(addr, size=size, chained=chained))

    def rec_write(self, addr: int, value: int, size: int = 8) -> None:
        """Record a transactional write and update the golden image."""
        self._require_tx().body.append(Op.write(addr, value, size=size))
        for offset in range(0, size, 8):
            self.golden[addr + offset] = value

    def rec_compute(self, amount: int = 1) -> None:
        """Record ``amount`` instructions of computation."""
        self._require_tx().body.append(Op.compute(amount))

    def log_candidate(self, addr: int, size: int = 64) -> None:
        """Declare a range the software undo logger must log up front."""
        self._require_tx().log_candidates.append((addr, size))

    # -- trace generation -------------------------------------------------------------

    def setup(self) -> None:
        """Populate initial state (the paper's InitOps, fast-forwarded).

        Subclasses build their structures here *without* recording
        transactions; initial values still land in the golden image via
        :meth:`poke`.
        """
        raise NotImplementedError

    def run_op(self) -> TxRecord:
        """Execute one randomized operation inside a transaction."""
        raise NotImplementedError

    def poke(self, addr: int, value: int, size: int = 8) -> None:
        """Set initial (pre-simulation) memory contents."""
        for offset in range(0, size, 8):
            self.golden[addr + offset] = value

    def generate(self) -> OpTrace:
        """Produce this thread's operation trace (setup + sim_ops)."""
        self.prepare()
        return self.generate_segment(self.sim_ops)

    # -- segmented generation / resume -------------------------------------

    def prepare(self) -> None:
        """Run :meth:`setup` once; idempotent.

        Segmented generation (checkpoint creation and resume) calls this
        before slicing the op stream with :meth:`skip` /
        :meth:`generate_segment`.
        """
        if not self._prepared:
            self.setup()
            self._prepared = True

    def generate_segment(self, count: int) -> OpTrace:
        """Emit the next ``count`` operations as a standalone trace.

        The trace's ``initial_image`` and ``warm_lines`` reflect the
        workload state *at the segment start* (setup plus every
        previously emitted or skipped operation), so the persistency
        model of a suffix segment starts from the correct memory image.  Generating the full stream in segments yields
        byte-identical operations to one :meth:`generate` call.
        """
        if count < 0:
            raise ValueError("segment length must be non-negative")
        self.prepare()
        trace = OpTrace(thread_id=self.thread_id)
        trace.warm_lines = self.warm_lines()
        trace.initial_image = dict(self.golden)
        for _ in range(count):
            if self.think_instructions:
                trace.append(
                    Op.compute(self.think_instructions, latency=self.think_latency)
                )
            trace.append(self.run_op())
        self._ops_emitted += count
        trace.validate()
        return trace

    def skip(self, count: int) -> None:
        """Fast-forward over ``count`` operations without building a trace.

        RNG state, the golden image, and transaction-id assignment evolve
        exactly as :meth:`generate_segment` would evolve them, so a
        subsequent segment is byte-identical to the one an uninterrupted
        generation would have produced.  Resuming a checkpoint skips its
        simulated prefix this way.
        """
        if count < 0:
            raise ValueError("skip length must be non-negative")
        self.prepare()
        for _ in range(count):
            self.run_op()
        self._ops_emitted += count

    def cursor(self) -> Dict[str, int]:
        """Resume cursor: where this workload's op stream currently stands."""
        return {
            "ops_emitted": self._ops_emitted,
            "next_txid": self._next_txid,
        }

    def warm_lines(self) -> List[int]:
        """Cache lines touched by initialization, in touch order.

        Derived from the golden image, whose insertion order follows the
        setup phase's pokes.  Replayed into the cache hierarchy before
        the measured run (see :class:`~repro.isa.trace.OpTrace`).
        """
        lines: List[int] = []
        seen = set()
        for addr in self.golden:
            line = addr & ~63
            if line not in seen:
                seen.add(line)
                lines.append(line)
        return lines

    def check_invariants(self) -> None:
        """Structure-specific consistency checks; subclasses override."""


#: bytes of one node of a keyed structure.
NODE_SIZE = 64


class KeyedWorkload(Workload):
    """A Table 2 benchmark that inserts and deletes random keys in
    :attr:`STRUCTURES` instances of one structure (AT, BT, RT and HM).

    The base owns the operation mix.  Initialization draws an instance
    and a key ``init_ops`` times and inserts each key not yet present,
    outside any transaction, so the inserted nodes reach the golden
    image through :meth:`poke`.  A measured operation picks an instance,
    then deletes a present key chosen uniformly (half the time, when the
    instance holds one) or inserts a random key; a key that is already
    present goes to :meth:`update` instead.  A self-balancing tree
    cannot tell at transaction start which nodes a rebalance will
    rewrite, so a software undo logger must log every node the
    operation visits and the children of each: a tree adds them to
    ``_visited`` and ``_candidate_extra`` while a transaction is open
    (``self._recording is not None``), and the base logs them whole.

    Subclasses implement :meth:`insert` and :meth:`delete`, and may
    override :meth:`update` and the :meth:`build` and :meth:`sync` hooks
    around the initialization loop.
    """

    STRUCTURES = 16
    KEY_SPACE = 1 << 20

    def setup(self) -> None:
        self.keys: List[List[int]] = [[] for _ in range(self.STRUCTURES)]
        self._key_sets: List[Set[int]] = [set() for _ in range(self.STRUCTURES)]
        self.build()
        for _ in range(self.init_ops):
            index = self.rng.randrange(self.STRUCTURES)
            key = self.rng.randrange(self.KEY_SPACE)
            if key in self._key_sets[index]:
                continue
            self.insert(index, key)
            self._register_key(index, key)
        self.sync()

    def build(self) -> None:
        """Allocate the empty structures, before any key is inserted."""

    def sync(self) -> None:
        """Flush the initialized structures into the golden image."""

    def insert(self, index: int, key: int) -> None:
        """Insert ``key``, which instance ``index`` does not hold."""
        raise NotImplementedError

    def delete(self, index: int, key: int) -> None:
        """Delete ``key``, which instance ``index`` holds."""
        raise NotImplementedError

    def update(self, index: int, key: int) -> None:
        """A measured insert of ``key``, which instance ``index`` already
        holds; a tree leaves the key alone."""

    def _register_key(self, index: int, key: int) -> None:
        self._key_sets[index].add(key)
        self.keys[index].append(key)

    def _pick_victim(self, index: int) -> int:
        """Remove and return a random present key (deletes must hit)."""
        keys = self.keys[index]
        position = self.rng.randrange(len(keys))
        key = keys[position]
        keys[position] = keys[-1]
        keys.pop()
        self._key_sets[index].remove(key)
        return key

    def run_op(self) -> TxRecord:
        index = self.rng.randrange(self.STRUCTURES)
        do_delete = self.rng.random() < 0.5 and self.keys[index]
        self.begin_tx()
        self._visited: Set[int] = set()
        self._candidate_extra: Set[int] = set()
        if do_delete:
            self.delete(index, self._pick_victim(index))
        else:
            key = self.rng.randrange(self.KEY_SPACE)
            if key in self._key_sets[index]:
                self.update(index, key)
            else:
                self.insert(index, key)
                self._register_key(index, key)
        for addr in sorted(self._visited | self._candidate_extra):
            self.log_candidate(addr, NODE_SIZE)
        return self.end_tx()


def generate_traces(
    workload_cls, threads: int, seed: int = 1, **kwargs
) -> List[OpTrace]:
    """Generate one trace per thread for a workload class."""
    traces = []
    for thread_id in range(threads):
        workload = workload_cls(thread_id=thread_id, seed=seed, **kwargs)
        traces.append(workload.generate())
    return traces
