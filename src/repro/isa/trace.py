"""Trace containers.

An :class:`OpTrace` is what a workload produces for one thread: a mix of
:class:`~repro.isa.ops.TxRecord` transactions and non-transactional
operations.  An :class:`InstructionTrace` is the lowered, scheme-specific
instruction stream executed by one core.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.isa.instructions import Instruction, Kind
from repro.isa.ops import Op, TxRecord

TraceItem = Union[TxRecord, Op]


@dataclass
class OpTrace:
    """A per-thread high-level operation trace.

    Items are either whole transactions (:class:`TxRecord`) or bare
    operations that execute outside any transaction (e.g. key generation,
    lock manipulation modeled as compute).

    ``warm_lines`` lists the cache lines the workload's initialization
    phase touched, in touch order.  The paper fast-forwards tens of
    thousands of init operations before measuring, which leaves the
    working set resident in the L3; the simulator replays this list into
    the cache hierarchy (functionally, costing no cycles) before the
    measured run.
    """

    thread_id: int = 0
    items: List[TraceItem] = field(default_factory=list)
    warm_lines: List[int] = field(default_factory=list)
    #: word -> value snapshot of memory after initialization and before
    #: the first measured transaction; the persistency model's lines
    #: start from it, and it is the recovery ground truth.
    initial_image: Optional[dict] = None

    def append(self, item: TraceItem) -> None:
        """Append a transaction or a bare op."""
        self.items.append(item)

    def transactions(self) -> Iterator[TxRecord]:
        """Iterate the transactions of the trace in order."""
        return (item for item in self.items if isinstance(item, TxRecord))

    def transaction_count(self) -> int:
        """Number of transactions in the trace."""
        return sum(1 for _ in self.transactions())

    def store_count(self) -> int:
        """Total transactional write ops across all transactions."""
        return sum(len(tx.writes()) for tx in self.transactions())

    def validate(self) -> None:
        """Validate every transaction (see :meth:`TxRecord.validate`)."""
        for tx in self.transactions():
            tx.validate()


@dataclass
class InstructionTrace:
    """A per-thread lowered instruction stream.

    The ``dep`` field of the instruction at index ``i`` names its producer
    as a backward distance: ``dep == 0`` is no producer, otherwise the
    producer is ``instructions[i - dep]``.  Records carry no position, so
    the same record may appear at several indices.

    ``transactions`` holds each transaction's ``(first, last)``: the
    first and last index whose instruction carries its txid, in order.

    ``runs`` indexes the stream by runs of one record: it holds, in
    ascending order, the index where each run starts.  Every
    :meth:`append` (and every instruction :meth:`extend` or the
    constructor adds) starts a run; :meth:`append_run` adds copies of
    one ALU record as a single run, which is how codegen emits a think
    chain's links.  The invariant: a position that starts no run holds
    the same ALU record as the position before it.  A walker that only
    acts on non-ALU instructions therefore visits each run's first
    position and steps over the rest.  The index is built as the
    stream is built; code that edits ``instructions`` in place must
    keep it right.  It is an array of C longs: a list would hold an int
    object and a slot, about 40 bytes, per run.
    """

    thread_id: int = 0
    instructions: List[Instruction] = field(default_factory=list)
    transactions: List[Tuple[int, int]] = field(default_factory=list)
    runs: "array[int]" = field(init=False, default_factory=lambda: array("l"))

    def __post_init__(self) -> None:
        self.runs = array("l", range(len(self.instructions)))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def append(self, instruction: Instruction) -> int:
        """Append one instruction as a run of its own and return its index."""
        index = len(self.instructions)
        self.runs.append(index)
        self.instructions.append(instruction)
        return index

    def append_run(self, instruction: Instruction, count: int) -> None:
        """Append ``count`` copies of one record as one run.  Only an ALU
        record may repeat; zero copies append nothing and start no run."""
        if count < 0:
            raise ValueError(f"a run holds a non-negative count, got {count}")
        if count > 1 and instruction.kind is not Kind.ALU:
            raise ValueError(
                f"only an ALU record repeats in one run, got {instruction.kind.value}"
            )
        if count:
            self.runs.append(len(self.instructions))
            self.instructions.extend([instruction] * count)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions, each as a run of its own."""
        start = len(self.instructions)
        self.instructions.extend(instructions)
        self.runs.extend(range(start, len(self.instructions)))

    def count(self, kind: Kind) -> int:
        """Number of instructions of the given kind."""
        runs, instructions = self.runs, self.instructions
        stops = runs[1:]
        stops.append(len(instructions))
        return sum(
            stop - start
            for start, stop in zip(runs, stops)
            if instructions[start].kind is kind
        )

    def validate(self) -> None:
        """Check that every dependence reaches a strictly earlier instruction.

        Only each run's first position is checked: a later copy of the
        record sits at a larger index, so its dependence reaches no
        further back.
        """
        instructions = self.instructions
        for index in self.runs:
            dep = instructions[index].dep
            if not 0 <= dep <= index:
                raise ValueError(
                    f"instruction {index} has dep={dep}, which does not "
                    f"reach a strictly earlier instruction of the trace"
                )
