"""HM — insert/delete entries in 16 chained hash maps (Table 2).

Each map has a bucket array of 8 B head pointers and 64 B nodes
(``key`` +0, ``value`` +8, ``next`` +16).  Chains are walked with
dependent (pointer-chasing) loads.  One insert or delete is one durable
transaction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.base import NODE_SIZE, KeyedWorkload

KEY_OFF = 0
VALUE_OFF = 8
NEXT_OFF = 16

BUCKET_BYTES = 8


class _HashMap:
    """In-memory mirror of one simulated hash map."""

    __slots__ = ("buckets_base", "num_buckets", "chains")

    def __init__(self, buckets_base: int, num_buckets: int) -> None:
        self.buckets_base = buckets_base
        self.num_buckets = num_buckets
        # bucket index -> list of (key, node_addr), head first
        self.chains: Dict[int, List] = {}

    def bucket_addr(self, index: int) -> int:
        return self.buckets_base + index * BUCKET_BYTES


class HashMapWorkload(KeyedWorkload):
    """16 hash maps, randomized insert/delete of random keys."""

    name = "HM"
    default_init_ops = 100000
    default_sim_ops = 300
    think_instructions = 1016
    BUCKETS_PER_MAP = 4096

    def build(self) -> None:
        self.maps = [
            _HashMap(self.heap.alloc(self.BUCKETS_PER_MAP * BUCKET_BYTES), self.BUCKETS_PER_MAP)
            for _ in range(self.STRUCTURES)
        ]

    def _hash(self, key: int) -> int:
        return (key * 2654435761) & (self.BUCKETS_PER_MAP - 1)

    def _bucket(self, index: int, key: int) -> Tuple[_HashMap, int, List]:
        """The map, the bucket index and the chain ``key`` hashes to."""
        hmap = self.maps[index]
        bucket = self._hash(key)
        return hmap, bucket, hmap.chains.setdefault(bucket, [])

    def _walk_chain(self, hmap: _HashMap, bucket: int, chain: List, upto: int) -> None:
        """Record the bucket read plus dependent chain loads."""
        self.rec_compute(2)  # hash computation
        self.rec_read(hmap.bucket_addr(bucket))
        for _, node in chain[:upto]:
            self.rec_read(node + KEY_OFF, chained=True)
            self.rec_compute(1)  # key compare

    def insert(self, index: int, key: int) -> None:
        hmap, bucket, chain = self._bucket(index, key)
        old_head = chain[0][1] if chain else 0
        if self._recording is None:
            node = self.heap.alloc(NODE_SIZE)
            self.poke(node + KEY_OFF, key)
            self.poke(node + VALUE_OFF, self.rng.getrandbits(32))
            self.poke(node + NEXT_OFF, old_head)
            self.poke(hmap.bucket_addr(bucket), node)
        else:
            self._walk_chain(hmap, bucket, chain, len(chain))
            node = self.heap.alloc(NODE_SIZE)
            self.log_candidate(node, NODE_SIZE)
            self.log_candidate(hmap.bucket_addr(bucket), BUCKET_BYTES)
            # Initialize the whole 64 B node (allocator + constructor writes).
            self.rec_write(node + KEY_OFF, key)
            self.rec_write(node + VALUE_OFF, self.rng.getrandbits(32))
            self.rec_write(node + NEXT_OFF, old_head)
            for offset in range(NEXT_OFF + 8, NODE_SIZE, 8):
                self.rec_write(node + offset, 0)
            self.rec_write(hmap.bucket_addr(bucket), node)
        chain.insert(0, (key, node))

    def update(self, index: int, key: int) -> None:
        """Overwrite the value of a present key in place."""
        hmap, bucket, chain = self._bucket(index, key)
        self._walk_chain(hmap, bucket, chain, len(chain))
        node = next(node for entry_key, node in chain if entry_key == key)
        self.log_candidate(node, NODE_SIZE)
        self.rec_write(node + VALUE_OFF, self.rng.getrandbits(32))

    def delete(self, index: int, key: int) -> None:
        hmap, bucket, chain = self._bucket(index, key)
        position = next(i for i, (entry_key, _) in enumerate(chain) if entry_key == key)
        self._walk_chain(hmap, bucket, chain, position + 1)
        node = chain[position][1]
        successor = chain[position + 1][1] if position + 1 < len(chain) else 0
        if position == 0:
            self.log_candidate(hmap.bucket_addr(bucket), BUCKET_BYTES)
            self.rec_write(hmap.bucket_addr(bucket), successor)
        else:
            predecessor = chain[position - 1][1]
            self.log_candidate(predecessor, NODE_SIZE)
            self.rec_write(predecessor + NEXT_OFF, successor)
        chain.pop(position)
        self.heap.free(node, NODE_SIZE)

    # -- validation -----------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Golden image chains must match the mirrors."""
        for hmap in self.maps:
            for bucket, chain in hmap.chains.items():
                addr = self.golden.get(hmap.bucket_addr(bucket), 0)
                expected = chain[0][1] if chain else 0
                if addr != expected:
                    raise AssertionError(
                        f"map {hmap.buckets_base:#x} bucket {bucket}: head mismatch"
                    )
                for i, (key, node) in enumerate(chain):
                    if self.golden.get(node + KEY_OFF, 0) != key:
                        raise AssertionError("stored key mismatch")
                    succ = chain[i + 1][1] if i + 1 < len(chain) else 0
                    if self.golden.get(node + NEXT_OFF, 0) != succ:
                        raise AssertionError("broken chain link")
