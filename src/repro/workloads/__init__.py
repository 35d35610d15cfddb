"""Benchmark workloads (Table 2 of the paper) plus the persistent heap
they allocate from.

Each workload is a real data-structure implementation that performs
randomized insert/delete (or swap) operations and records, per operation,
one durable transaction: the traversal loads, the mutating stores with
concrete values, and the conservative *log candidate* set a software undo
logger would have to persist up front.

A new workload subclasses :class:`~repro.workloads.base.Workload` and
implements ``setup`` and ``run_op``.  A keyed benchmark (AT, BT, RT and
HM: random inserts and deletes of keys in 16 instances) subclasses
:class:`~repro.workloads.base.KeyedWorkload` instead, which owns the key
pool, the initialization loop and the transaction driver, and
implements ``build``, ``insert``, ``delete`` and ``sync`` (HM also
``update``: inserting a key that is already present rewrites its value,
where a tree leaves the key alone).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.trace import OpTrace
from repro.workloads.avltree_wl import AvlTreeWorkload
from repro.workloads.base import generate_traces
from repro.workloads.btree_wl import BTreeWorkload
from repro.workloads.hashmap_wl import HashMapWorkload
from repro.workloads.heap import PersistentHeap, ThreadAddressSpace
from repro.workloads.linkedlist_wl import LinkedListWorkload
from repro.workloads.queue_wl import QueueWorkload
from repro.workloads.rbtree_wl import RbTreeWorkload
from repro.workloads.stringswap_wl import StringSwapWorkload

#: Paper abbreviation -> workload class (Table 2 order).
WORKLOADS = {
    "QE": QueueWorkload,
    "HM": HashMapWorkload,
    "SS": StringSwapWorkload,
    "AT": AvlTreeWorkload,
    "BT": BTreeWorkload,
    "RT": RbTreeWorkload,
}

#: Order in which the paper's figures present the benchmarks.
BENCHMARK_ORDER = ("QE", "HM", "SS", "AT", "BT", "RT")


#: Friendly CLI spellings for the paper's workload abbreviations.
WORKLOAD_ALIASES = {
    "queue": "QE",
    "hashmap": "HM",
    "stringswap": "SS",
    "avltree": "AT",
    "avl": "AT",
    "btree": "BT",
    "rbtree": "RT",
}


def resolve_workload(name) -> type:
    """Workload class from a paper code or a friendly name."""
    if isinstance(name, type):
        return name
    key = str(name).strip()
    code = WORKLOAD_ALIASES.get(key.lower(), key.upper())
    try:
        return WORKLOADS[code]
    except KeyError:
        choices = sorted(WORKLOADS) + sorted(WORKLOAD_ALIASES)
        raise ValueError(
            f"unknown workload {name!r}; choose one of {', '.join(choices)}"
        ) from None


def make_workload(name: str, thread_id: int = 0, seed: int = 1, **kwargs):
    """Instantiate a workload by its paper code or friendly name."""
    return resolve_workload(name)(thread_id=thread_id, seed=seed, **kwargs)


def workload_traces(
    workload,
    threads: int = 1,
    seed: int = 42,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    think_instructions: Optional[int] = None,
) -> Tuple[str, List[OpTrace]]:
    """Resolve ``workload`` and generate one trace per thread.

    Sizes left ``None`` keep the workload's defaults.  Returns the
    workload's paper code with the traces.
    """
    workload_cls = resolve_workload(workload)
    sizes = {
        name: value
        for name, value in (
            ("init_ops", init_ops),
            ("sim_ops", sim_ops),
            ("think_instructions", think_instructions),
        )
        if value is not None
    }
    traces = generate_traces(workload_cls, threads=threads, seed=seed, **sizes)
    return workload_cls.name, traces


__all__ = [
    "AvlTreeWorkload",
    "BENCHMARK_ORDER",
    "BTreeWorkload",
    "HashMapWorkload",
    "LinkedListWorkload",
    "PersistentHeap",
    "QueueWorkload",
    "RbTreeWorkload",
    "StringSwapWorkload",
    "ThreadAddressSpace",
    "WORKLOADS",
    "WORKLOAD_ALIASES",
    "make_workload",
    "resolve_workload",
    "workload_traces",
]
