"""Sweep executor pins: what every sweep must keep when its executor changes.

The lint, verify and profile sweeps and :class:`SweepRunner` all run
their cells through :mod:`repro.parallel`.  These checks hold what a
caller can see of that layer:

* a sweep's report is the same text inline (``jobs=1``), over a pool
  (``jobs=2``) and over a pool with a write-ahead journal attached;
* a runner with neither a resilience config nor a journal fails fast:
  a cell that overruns its cycle budget fails the batch at any ``jobs``
  and nothing is quarantined;
* a failing cell is not retried: the chaos ``fail`` directive fires
  only once, yet the batch still fails.
"""

import pytest

from repro.analysis.lintsweep import lint_sweep
from repro.analysis.profiling import profile_sweep
from repro.analysis.verifysweep import verify_sweep
from repro.core.schemes import BASELINE, Scheme
from repro.parallel import CellSpec, SweepJournal, SweepRunner
from repro.parallel.chaos import (
    CHAOS_PLAN_ENV,
    chaos_cells,
    write_chaos_plan,
)
from repro.sim.config import fast_nvm_config

SCHEMES = [Scheme.PMEM, Scheme.PROTEUS]

SWEEPS = {
    "lint": (lint_sweep, dict(
        schemes=SCHEMES, workloads=["QE", "HM"],
        threads=1, seed=42, init_ops=60, sim_ops=6,
    )),
    "verify": (verify_sweep, dict(
        schemes=SCHEMES, workloads=["QE", "HM"],
        threads=1, seed=42, init_ops=40, sim_ops=4, budget=64,
    )),
    "profile": (profile_sweep, dict(
        schemes=SCHEMES, workloads=["QE"],
        threads=1, scale=0.005, seed=7,
    )),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_report_is_the_same_inline_pooled_and_journaled(name, tmp_path):
    sweep, kwargs = SWEEPS[name]
    inline = sweep(jobs=1, **kwargs).report()
    assert sweep(jobs=2, **kwargs).report() == inline
    with SweepJournal(tmp_path / f"{name}.jsonl") as journal:
        journaled = sweep(jobs=2, journal=journal, **kwargs)
    assert journaled.report() == inline
    assert not journaled.quarantined


def budget_cells():
    config = fast_nvm_config(cores=1)
    return [
        CellSpec(workload="QE", scheme=scheme, config=config, threads=1,
                 seed=3, init_ops=200, sim_ops=6, max_cycles=100)
        for scheme in (BASELINE, Scheme.PROTEUS)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_plain_runner_fails_fast_on_an_exhausted_budget(jobs):
    runner = SweepRunner(jobs=jobs)
    with pytest.raises(RuntimeError, match="exceeded its budget"):
        runner.run_cells(budget_cells())
    assert runner.quarantined == []


def test_plain_runner_does_not_retry_a_failed_cell(monkeypatch, tmp_path):
    cells = chaos_cells(
        workloads=("QE",), schemes=(BASELINE, Scheme.PROTEUS), sim_ops=4
    )
    victim = sorted(cells)[0]
    plan = write_chaos_plan(
        tmp_path / "plan.json", {victim: "fail"}, tmp_path / "markers"
    )
    monkeypatch.setenv(CHAOS_PLAN_ENV, str(plan))
    runner = SweepRunner(jobs=2)
    with pytest.raises(RuntimeError, match="injected transient failure"):
        runner.run_cells([cells[key] for key in sorted(cells)])
    # The directive fired once; a retry would have succeeded.
    assert len(list((tmp_path / "markers").iterdir())) == 1
    assert runner.quarantined == []
