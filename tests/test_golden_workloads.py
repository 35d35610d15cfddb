"""Golden workload digests: generated op traces pinned against their past.

Trace generation feeds every scheme, so a change to a workload's code
must leave what it generates unchanged unless the change is meant to
alter the benchmark.  The ``Stats`` and trace pins only see a workload
through timing, which misses a changed written value; this module pins
the op traces themselves.  Every sweep workload runs at 1, 2 and 4
threads, two seeds and two sizings: one that fills each structure so
deletes and rebalancing happen, and one so sparse that many instances
start or become empty.  Each cell is reduced to one SHA-256 over every
thread's ``OpTrace``: each item with all its fields (written values
included), then the ``initial_image`` items in insertion order, then
the ``warm_lines``.

``tests/golden/workload_digests.json`` holds the pinned digests.  Only
``python tools/pin_golden_stats.py`` rewrites it; do that after a
deliberate change to a workload, never to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.isa.ops import Op, TxRecord
from repro.isa.trace import OpTrace
from repro.parallel.cellspec import SWEEP_WORKLOADS
from repro.workloads.base import generate_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "workload_digests.json"

THREADS = (1, 2, 4)
SEEDS = (7, 31)
#: name -> (init_ops, sim_ops)
SIZINGS = {
    "full": (500, 20),
    "sparse": (12, 24),
}

#: (workload, threads, seed, sizing)
Cell = Tuple[str, int, int, str]


def golden_cells() -> List[Cell]:
    """The pinned matrix, in a fixed order."""
    return [
        (workload, threads, seed, sizing)
        for workload in sorted(SWEEP_WORKLOADS)
        for threads in THREADS
        for seed in SEEDS
        for sizing in SIZINGS
    ]


def cell_key(cell: Cell) -> str:
    workload, threads, seed, sizing = cell
    return f"{workload}/t{threads}/seed{seed}/{sizing}"


def _op_fields(op: Op) -> tuple:
    return (op.kind.value, op.addr, op.size, op.value, op.chained, op.amount, op.latency)


def _update(digest, trace: OpTrace) -> None:
    digest.update(f"thread {trace.thread_id}\n".encode())
    for item in trace.items:
        if isinstance(item, TxRecord):
            fields = (
                "tx",
                item.txid,
                [_op_fields(op) for op in item.body],
                item.log_candidates,
            )
        else:
            fields = ("op", _op_fields(item))
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    digest.update(repr(list((trace.initial_image or {}).items())).encode())
    digest.update(b"\n")
    digest.update(repr(trace.warm_lines).encode())
    digest.update(b"\n")


def cell_digest(cell: Cell) -> str:
    """Generate one cell's traces and reduce them to a SHA-256."""
    workload, threads, seed, sizing = cell
    init_ops, sim_ops = SIZINGS[sizing]
    traces = generate_traces(
        SWEEP_WORKLOADS[workload],
        threads=threads,
        seed=seed,
        init_ops=init_ops,
        sim_ops=sim_ops,
    )
    digest = hashlib.sha256()
    for trace in traces:
        _update(digest, trace)
    return digest.hexdigest()


def compute_digests() -> Dict[str, str]:
    return {cell_key(cell): cell_digest(cell) for cell in golden_cells()}


def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_the_matrix():
    assert sorted(_load_golden()) == sorted(cell_key(cell) for cell in golden_cells())


@pytest.mark.parametrize("cell", golden_cells(), ids=cell_key)
def test_workload_traces_match_golden(cell):
    assert cell_digest(cell) == _load_golden()[cell_key(cell)], (
        f"{cell_key(cell)}: generated op traces changed; if the workload "
        f"change is deliberate, re-pin with tools/pin_golden_stats.py"
    )


def test_digest_sees_written_values():
    """A different written value changes the digest."""
    trace = OpTrace(thread_id=0)
    trace.append(TxRecord(txid=1, body=[Op.write(0x1000, 5)], log_candidates=[(0x1000, 64)]))
    changed = OpTrace(thread_id=0)
    changed.append(TxRecord(txid=1, body=[Op.write(0x1000, 4)], log_candidates=[(0x1000, 64)]))
    digests = []
    for candidate in (trace, changed):
        digest = hashlib.sha256()
        _update(digest, candidate)
        digests.append(digest.hexdigest())
    assert digests[0] != digests[1]
