"""Sweep-runner tests: cell identity, duplicate collapsing, process
fan-out equivalence, and cell-order independence.

The determinism tests here are the contract the experiment layer leans
on: a cell's result must depend only on the cell itself — not on batch
order, on ``jobs``, or on which cells happen to share a batch.
"""

import random

import pytest

from repro.core.schemes import BASELINE, Scheme
from repro.parallel import (
    CellSpec,
    SweepRunner,
    canonical_json,
    config_from_dict,
    config_to_dict,
    payload_to_result,
    resilient_map,
    result_bytes,
    result_to_payload,
)
from repro.sim.config import CacheConfig, fast_nvm_config

TINY = dict(threads=1, seed=3, init_ops=200, sim_ops=6)


def tiny_cells(
    schemes=(BASELINE, Scheme.ATOM, Scheme.PROTEUS), workloads=("QE", "HM")
):
    config = fast_nvm_config(cores=1)
    return [
        CellSpec(workload=workload, scheme=scheme, config=config, **TINY)
        for workload in workloads
        for scheme in schemes
    ]


def test_spec_rejects_unknown_workload():
    with pytest.raises(ValueError):
        CellSpec(workload="nope", scheme=BASELINE, config=fast_nvm_config())


def test_spec_dict_roundtrip():
    spec = tiny_cells()[0]
    again = CellSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.digest(code_version="v") == spec.digest(code_version="v")


def test_config_roundtrip_preserves_every_field():
    config = fast_nvm_config(cores=2).with_proteus(
        logq_entries=3, llt_entries=16, lpq_entries=48
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_digest_covers_full_config():
    # The old experiment cache keyed on a hand-picked field subset and
    # collided on everything else; the content digest must not.
    base = tiny_cells()[0]
    variants = [
        base.config.with_proteus(llt_ways=1),
        base.config.with_memory(banks=2),
        base.config.replace(l1=CacheConfig(16 * 1024, 8, 4)),
    ]
    digests = {base.digest(code_version="v")}
    for config in variants:
        spec = CellSpec(
            workload=base.workload, scheme=base.scheme, config=config, **TINY
        )
        digests.add(spec.digest(code_version="v"))
    assert len(digests) == 1 + len(variants)


def test_digest_depends_on_code_version():
    spec = tiny_cells()[0]
    assert spec.digest(code_version="a") != spec.digest(code_version="b")


def test_duplicate_cells_simulated_once():
    spec = tiny_cells()[0]
    runner = SweepRunner(jobs=1)
    first, second = runner.run_cells([spec, spec])
    assert first is second
    assert runner.simulated == 1


def test_memo_shares_across_batches():
    spec = tiny_cells()[0]
    runner = SweepRunner(jobs=1)
    first = runner.run_one(spec)
    second = runner.run_one(spec)
    assert first is second
    assert runner.simulated == 1
    assert runner.memo_hits == 1


def test_payload_roundtrip_is_byte_identical():
    result = SweepRunner(jobs=1).run_one(tiny_cells()[0])
    rebuilt = payload_to_result(result_to_payload(result))
    assert result_bytes(rebuilt) == result_bytes(result)
    assert rebuilt.cycles == result.cycles
    assert rebuilt.stats.counters == result.stats.counters


def test_parallel_results_match_serial_byte_for_byte():
    cells = tiny_cells()
    serial = SweepRunner(jobs=1).run_cells(cells)
    fanned = SweepRunner(jobs=2).run_cells(cells)
    assert [result_bytes(r) for r in serial] == [result_bytes(r) for r in fanned]


def test_shuffled_cell_order_is_deterministic():
    cells = tiny_cells()
    baseline = {
        canonical_json(spec.describe()): result_bytes(result)
        for spec, result in zip(cells, SweepRunner(jobs=1).run_cells(cells))
    }
    for round_seed in (0, 1):
        shuffled = cells[:]
        random.Random(round_seed).shuffle(shuffled)
        results = SweepRunner(jobs=1).run_cells(shuffled)
        for spec, result in zip(shuffled, results):
            key = canonical_json(spec.describe())
            assert result_bytes(result) == baseline[key]


def _square(value):
    return value * value


def test_resilient_map_preserves_order():
    items = list(range(7))
    keys = [f"k{v}" for v in items]
    for jobs in (1, 2):
        values, quarantined = resilient_map(_square, items, keys, jobs=jobs)
        assert values == [v * v for v in items]
        assert quarantined == []
