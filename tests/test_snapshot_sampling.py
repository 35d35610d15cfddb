"""SMARTS-style sampled simulation: statistics and accuracy.

Two layers of checks:

* the statistical machinery in isolation — t critical values, the
  CI estimator, interval placement, parameter validation, and the
  refusal contract (a report whose CI exceeds the threshold raises
  rather than returning a number it cannot stand behind);
* end-to-end accuracy — on two workloads, the sampled IPC and
  log-write-drop reproduce the full detailed run within the issue's
  2 % target while simulating a fraction of the ops in detail.
"""

from __future__ import annotations

import math

import pytest

from repro.core.schemes import Scheme
from repro.parallel.cellspec import CellSpec
from repro.parallel.runner import execute_cell
from repro.sim.config import fast_nvm_config
from repro.snapshot import (
    SampleReport,
    SamplingError,
    SamplingParams,
    estimate_metric,
    run_sampled,
    sample_offsets,
    t_critical,
)

#: Geometry used by the accuracy tests and the bench suite: 6 intervals
#: of 20 warmup + 30 measured ops over a 180-op stream.
PARAMS = SamplingParams(intervals=6, warmup_ops=20, measure_ops=30)
SIZING = dict(threads=1, seed=11, init_ops=64, sim_ops=180)


def cell_for(workload, scheme=Scheme.PROTEUS):
    return CellSpec(
        workload=workload, scheme=scheme, config=fast_nvm_config(cores=1),
        **SIZING,
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_t_critical_values():
    assert t_critical(0.95, 4) == pytest.approx(2.776)
    assert t_critical(0.90, 1) == pytest.approx(6.314)
    assert t_critical(0.99, 30) == pytest.approx(2.750)
    # Beyond the table: the normal quantile.
    assert t_critical(0.95, 200) == pytest.approx(1.960)
    with pytest.raises(ValueError):
        t_critical(0.95, 0)


def test_estimate_metric_known_values():
    estimate = estimate_metric("m", [1.0, 2.0, 3.0], confidence=0.95)
    assert estimate.mean == pytest.approx(2.0)
    assert estimate.std == pytest.approx(1.0)
    expected_half = 4.303 * 1.0 / math.sqrt(3)
    assert estimate.ci_half_width == pytest.approx(expected_half)
    assert estimate.rel_ci == pytest.approx(expected_half / 2.0)


def test_estimate_metric_zero_mean():
    estimate = estimate_metric("m", [0.0, 0.0, 0.0], confidence=0.95)
    assert estimate.mean == 0.0 and estimate.rel_ci == 0.0
    skewed = estimate_metric("m", [-1.0, 1.0], confidence=0.95)
    assert skewed.mean == 0.0 and skewed.rel_ci == math.inf


def test_estimate_metric_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_metric("m", [1.0], confidence=0.95)


def test_sample_offsets_cover_the_stream():
    offsets = sample_offsets(SIZING["sim_ops"], PARAMS)
    assert len(offsets) == PARAMS.intervals
    assert offsets[0] == 0
    usable = SIZING["sim_ops"] - PARAMS.warmup_ops - PARAMS.measure_ops
    assert offsets[-1] == usable
    assert offsets == sorted(offsets)
    # Every interval's detailed window fits inside the stream.
    assert all(
        offset + PARAMS.warmup_ops + PARAMS.measure_ops <= SIZING["sim_ops"]
        for offset in offsets
    )


def test_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(intervals=1).validate(100)
    with pytest.raises(ValueError):
        SamplingParams(measure_ops=0).validate(100)
    with pytest.raises(ValueError):
        SamplingParams(confidence=0.42).validate(100)
    with pytest.raises(ValueError):
        SamplingParams(warmup_ops=80, measure_ops=30).validate(100)
    PARAMS.validate(SIZING["sim_ops"])  # the suite geometry is legal


def tiny_cell(workload="QE"):
    sizing = dict(SIZING)
    sizing["sim_ops"] = 60
    return CellSpec(
        workload=workload, scheme=Scheme.PROTEUS,
        config=fast_nvm_config(cores=1), **sizing,
    )


TINY_PARAMS = dict(intervals=3, warmup_ops=5, measure_ops=10)


def test_report_refuses_wide_intervals():
    report = run_sampled(
        tiny_cell(),
        SamplingParams(max_rel_ci=1e-9, **TINY_PARAMS),
        strict=False,
    )
    assert isinstance(report, SampleReport)
    with pytest.raises(SamplingError) as excinfo:
        report.check()
    assert "confidence" in str(excinfo.value)
    # strict=True raises straight from run_sampled.
    with pytest.raises(SamplingError):
        run_sampled(
            tiny_cell(), SamplingParams(max_rel_ci=1e-9, **TINY_PARAMS)
        )


# ---------------------------------------------------------------------------
# end-to-end accuracy (the issue's acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["QE", "HM"])
def test_sampled_matches_full_run(workload):
    cell = cell_for(workload)
    full = execute_cell(cell)
    report = run_sampled(cell, PARAMS, strict=False)

    full_ipc = full.stats.counters["retired_instructions"] / full.cycles
    ipc = report.estimates["ipc"]
    tolerance = max(0.02 * full_ipc, ipc.ci_half_width)
    assert abs(ipc.mean - full_ipc) <= tolerance, (
        f"sampled IPC {ipc.mean:.4f} vs full {full_ipc:.4f} "
        f"misses the 2% target"
    )

    log_writes = full.stats.counters.get("nvm.write.log", 0)
    admitted = full.stats.counters.get("lpq.admitted", 0)
    if admitted and "log_write_drop" in report.estimates:
        full_drop = 1.0 - log_writes / admitted
        drop = report.estimates["log_write_drop"]
        assert abs(drop.mean - full_drop) <= max(0.02, drop.ci_half_width)

    # Detailed work is fixed by the window geometry, independent of
    # sim_ops — the wall-time win at paper scale (measured by the bench
    # suite) follows from that.
    expected = PARAMS.intervals * (PARAMS.warmup_ops + PARAMS.measure_ops)
    assert report.detailed_ops == expected
    assert report.to_payload()["detailed_ops"] == report.detailed_ops


def test_sampling_is_deterministic():
    params = SamplingParams(max_rel_ci=1.0, **TINY_PARAMS)
    first = run_sampled(tiny_cell(), params, strict=False)
    second = run_sampled(tiny_cell(), params, strict=False)
    assert first.to_payload() == second.to_payload()


def test_runner_sampled_mode_reuses_checkpoints(tmp_path):
    from repro.parallel.cache import ResultCache
    from repro.parallel.runner import SweepRunner

    cache = ResultCache(tmp_path, code_version="pinned-test")
    runner = SweepRunner(jobs=1, cache=cache)
    params = SamplingParams(max_rel_ci=1.0, **TINY_PARAMS)

    first = runner.run_sampled([tiny_cell()], params, strict=False)[0]
    store = runner._checkpoints
    assert store is not None
    assert store.misses == TINY_PARAMS["intervals"]
    assert store.stores == TINY_PARAMS["intervals"]

    second = runner.run_sampled([tiny_cell()], params, strict=False)[0]
    assert store.hits == TINY_PARAMS["intervals"]
    assert first.to_payload() == second.to_payload()
    assert runner.sampled == 2
    assert "sampled" in runner.describe()
    assert "checkpoints" in runner.describe()
