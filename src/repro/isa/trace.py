"""Trace containers.

An :class:`OpTrace` is what a workload produces for one thread: a mix of
:class:`~repro.isa.ops.TxRecord` transactions and non-transactional
operations.  An :class:`InstructionTrace` is the lowered, scheme-specific
instruction stream executed by one core.
"""

from __future__ import annotations

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
    """

    thread_id: int = 0
    instructions: List[Instruction] = field(default_factory=list)
    transactions: List[Tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def append(self, instruction: Instruction) -> int:
        """Append and return the index of the appended instruction."""
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)

    def count(self, kind: Kind) -> int:
        """Number of instructions of the given kind."""
        return sum(1 for instr in self.instructions if instr.kind is kind)

    def validate(self) -> None:
        """Check that every dependence reaches a strictly earlier instruction."""
        for index, instr in enumerate(self.instructions):
            if not 0 <= instr.dep <= index:
                raise ValueError(
                    f"instruction {index} has dep={instr.dep}, which does not "
                    f"reach a strictly earlier instruction of the trace"
                )
