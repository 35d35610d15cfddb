"""A functional checkpoint warms its caches exactly as the simulator does.

A functional checkpoint skips the prefix without simulating it, then
warms a fresh machine with each thread's post-prefix footprint.  The
machine it captures must equal a simulator built from the post-prefix
segments, whose constructor runs the same warm-up: every cache level's
residency and LRU order, and every counter's value and creation order.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import Scheme
from repro.sim.simulator import Simulator
from repro.snapshot import create_checkpoint, workloads_for
from tests.test_snapshot_roundtrip import SPLIT, tiny_cell


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_functional_checkpoint_warms_like_the_simulator(scheme, threads):
    cell = tiny_cell(scheme, threads=threads)
    checkpoint = create_checkpoint(cell, SPLIT, kind="functional")

    workloads = workloads_for(cell)
    for workload in workloads:
        workload.skip(SPLIT)
    segments = [
        workload.generate_segment(cell.sim_ops - SPLIT) for workload in workloads
    ]
    sim = Simulator(cell.config, cell.scheme, segments)

    assert checkpoint.machine.hierarchy == sim.hierarchy.state_dict()
    assert list(checkpoint.machine.counters.items()) == list(
        sim.stats.counters.items()
    )
