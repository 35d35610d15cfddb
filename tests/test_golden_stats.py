"""Golden ``Stats`` digests: the reference loop pinned against its own past.

A refactor of the simulation loop or of any model it drives must leave
every simulated result unchanged.  This module checks that: every cell
of a schemes x workloads x seeds matrix is simulated and its ``Stats``
are reduced to a SHA-256 over the ordered ``(counter, value)`` items
plus the final cycle.  Counter insertion order is part of the digest,
because serialized ``Stats`` preserve it.

``tests/golden/stats_digests.json`` holds the pinned digests.  Only
``python tools/pin_golden_stats.py`` rewrites it; do that after a
deliberate model change, never to make a refactor pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.core.schemes import Scheme
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import SimResult, Simulator
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "stats_digests.json"

SEEDS = (7, 31)
SIZING = dict(init_ops=32, sim_ops=10)

#: Multithreaded cells: contention in the shared memory controller and
#: caches, under the software, ATOM and Proteus logging paths.
MULTI_THREAD_WORKLOADS = ("QE", "HM")
MULTI_THREAD_SCHEMES = (Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS)
MULTI_THREADS = 2

#: (workload, scheme, seed, threads)
Cell = Tuple[str, Scheme, int, int]


def golden_cells() -> List[Cell]:
    """The pinned matrix, in a fixed order."""
    cells: List[Cell] = [
        (workload, scheme, seed, 1)
        for workload in WORKLOADS
        for scheme in Scheme
        for seed in SEEDS
    ]
    cells += [
        (workload, scheme, seed, MULTI_THREADS)
        for workload in MULTI_THREAD_WORKLOADS
        for scheme in MULTI_THREAD_SCHEMES
        for seed in SEEDS
    ]
    return cells


def cell_key(cell: Cell) -> str:
    workload, scheme, seed, threads = cell
    return f"{workload}/{scheme.value}/seed{seed}/t{threads}"


@functools.lru_cache(maxsize=None)
def _traces(workload: str, seed: int, threads: int):
    # Lowering never mutates the op traces, so schemes share them.
    return generate_traces(WORKLOADS[workload], threads=threads, seed=seed, **SIZING)


def stats_digest(result: SimResult) -> str:
    """SHA-256 of the ordered counter items plus the final cycle."""
    payload = json.dumps(
        [[[name, value] for name, value in result.stats.counters.items()], result.cycles],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def run_cell(cell: Cell) -> str:
    """Simulate one cell; return its digest."""
    workload, scheme, seed, threads = cell
    sim = Simulator(fast_nvm_config(cores=threads), scheme, _traces(workload, seed, threads))
    return stats_digest(sim.run())


def compute_digests() -> Dict[str, str]:
    return {cell_key(cell): run_cell(cell) for cell in golden_cells()}


def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_exactly_the_matrix():
    assert sorted(_load_golden()) == sorted(cell_key(cell) for cell in golden_cells())


@pytest.mark.parametrize("cell", golden_cells(), ids=cell_key)
def test_reference_stats_match_golden(cell):
    assert run_cell(cell) == _load_golden()[cell_key(cell)], (
        f"{cell_key(cell)}: reference-engine Stats changed; if the model "
        f"change is deliberate, re-pin with tools/pin_golden_stats.py"
    )
