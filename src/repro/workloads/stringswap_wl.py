"""SS — swap 256 B strings within a large string array (Table 2).

The array holds ``num_items`` strings of 256 B each.  One operation picks
two random slots, reads both strings and writes each into the other's
slot — 8 cache-line writes per transaction.  String contents are modeled
as one identity word per 64 B line (enough for the persistency model
to verify that swaps really swapped).

The paper uses 262,144 items; the scaled default keeps the array far
larger than the L2 so the access pattern stays memory-bound.
"""

from __future__ import annotations

from typing import List

from repro.isa.ops import TxRecord
from repro.workloads.base import Workload

STRING_BYTES = 256
LINE = 64
LINES_PER_STRING = STRING_BYTES // LINE


class StringSwapWorkload(Workload):
    """Random pairwise string swaps in one big array."""

    name = "SS"
    default_init_ops = 16384  # array size (items), populated at setup
    default_sim_ops = 400
    think_instructions = 1444

    def setup(self) -> None:
        self.num_items = max(2, self.init_ops)
        self.array_base = self.heap.alloc(self.num_items * STRING_BYTES)
        # contents[i] is the identity of the string currently in slot i.
        self.contents: List[int] = list(range(self.num_items))
        for index in range(self.num_items):
            base = self.slot_addr(index)
            for line in range(LINES_PER_STRING):
                self.poke(base + line * LINE, index)

    def slot_addr(self, index: int) -> int:
        """Byte address of slot ``index``."""
        return self.array_base + index * STRING_BYTES

    # -- simulated operations ---------------------------------------------------------

    def run_op(self) -> TxRecord:
        first = self.rng.randrange(self.num_items)
        second = self.rng.randrange(self.num_items)
        while second == first:
            second = self.rng.randrange(self.num_items)
        self.begin_tx()
        self._swap(first, second)
        return self.end_tx()

    def _swap(self, first: int, second: int) -> None:
        first_addr = self.slot_addr(first)
        second_addr = self.slot_addr(second)
        self.log_candidate(first_addr, STRING_BYTES)
        self.log_candidate(second_addr, STRING_BYTES)

        self.rec_compute(2)  # index arithmetic
        for line in range(LINES_PER_STRING):
            self.rec_read(first_addr + line * LINE, size=LINE)
            self.rec_read(second_addr + line * LINE, size=LINE)
        first_id = self.contents[first]
        second_id = self.contents[second]
        # The copies run word by word, like the memcpy the paper's
        # benchmark compiles to (this is what gives string swap its LLT
        # locality: eight stores per 64 B line, four per 32 B block).
        for offset in range(0, STRING_BYTES, 8):
            self.rec_write(first_addr + offset, second_id)
            self.rec_write(second_addr + offset, first_id)
        self.contents[first], self.contents[second] = second_id, first_id

    # -- validation ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Every slot's golden lines must carry the mirrored identity, and
        the multiset of identities must be a permutation of 0..n-1."""
        if sorted(self.contents) != list(range(self.num_items)):
            raise AssertionError("string identities are no longer a permutation")
        for index, identity in enumerate(self.contents):
            base = self.slot_addr(index)
            for line in range(LINES_PER_STRING):
                stored = self.golden.get(base + line * LINE, index)
                if stored != identity:
                    raise AssertionError(
                        f"slot {index} line {line}: stored {stored}, "
                        f"expected {identity}"
                    )
