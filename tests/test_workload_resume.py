"""Deterministic mid-stream workload resume.

The checkpoint/resume machinery never stores traces: it regenerates
them by fast-forwarding a fresh workload object to the checkpoint's
operation offset.  These tests hold the contract for *every* sweepable
workload (the Table 2 suite plus the linked-list microbenchmark):

* generating the stream in segments yields byte-identical operations to
  one uninterrupted ``generate()`` call;
* ``skip(n)`` evolves the RNG, golden image, and transaction-id counter
  exactly as emitting those ``n`` ops would, so the suffix segment after
  a skip equals the suffix of an uninterrupted run — including its
  segment-start ``initial_image`` and ``warm_lines``;
* the resume ``cursor()`` advances identically along either path.
"""

from __future__ import annotations

import pytest

from repro.parallel.cellspec import SWEEP_WORKLOADS

SIZING = dict(seed=13, init_ops=48, sim_ops=9)
SPLIT = 4


def make(workload_code, **overrides):
    kwargs = dict(SIZING)
    kwargs.update(overrides)
    return SWEEP_WORKLOADS[workload_code](thread_id=0, **kwargs)


@pytest.mark.parametrize("code", sorted(SWEEP_WORKLOADS))
def test_segmented_generation_matches_full(code):
    full = make(code).generate()

    segmented = make(code)
    segmented.prepare()
    first = segmented.generate_segment(SPLIT)
    second = segmented.generate_segment(SIZING["sim_ops"] - SPLIT)

    assert first.items + second.items == full.items
    assert first.warm_lines == full.warm_lines
    assert first.initial_image == full.initial_image
    assert segmented.cursor()["ops_emitted"] == SIZING["sim_ops"]


@pytest.mark.parametrize("code", sorted(SWEEP_WORKLOADS))
def test_skip_then_generate_matches_suffix(code):
    reference = make(code)
    reference.prepare()
    reference.generate_segment(SPLIT)
    suffix = reference.generate_segment(SIZING["sim_ops"] - SPLIT)

    resumed = make(code)
    resumed.skip(SPLIT)
    regenerated = resumed.generate_segment(SIZING["sim_ops"] - SPLIT)

    # The regenerated suffix is byte-identical: same ops, same
    # segment-start golden image, same warm footprint.
    assert regenerated.items == suffix.items
    assert regenerated.initial_image == suffix.initial_image
    assert regenerated.warm_lines == suffix.warm_lines
    assert resumed.cursor() == reference.cursor()


@pytest.mark.parametrize("code", sorted(SWEEP_WORKLOADS))
def test_cursor_tracks_offset_and_txids(code):
    workload = make(code)
    assert workload.cursor()["ops_emitted"] == 0
    workload.skip(3)
    cursor = workload.cursor()
    assert cursor["ops_emitted"] == 3
    # Every workload runs each measured op inside one transaction.
    assert cursor["next_txid"] >= 1

    other = make(code)
    other.prepare()
    other.generate_segment(3)
    assert other.cursor() == cursor


def test_skip_rejects_negative():
    workload = make("QE")
    with pytest.raises(ValueError):
        workload.skip(-1)
    with pytest.raises(ValueError):
        workload.generate_segment(-1)


def test_full_skip_leaves_empty_stream():
    workload = make("HM")
    workload.skip(SIZING["sim_ops"])
    tail = workload.generate_segment(0)
    assert tail.items == []
    assert workload.cursor()["ops_emitted"] == SIZING["sim_ops"]
