"""Chaos-harness tests: directive mechanics and a mini campaign.

The heavy seeded campaign (plus the driver-kill round) runs in CI's
``chaos-smoke`` job via ``python -m repro chaos``; here we unit-test the
injection machinery — plan files, one-shot markers, the always-firing
poison — and run one small in-process round to hold the convergence
contract inside the test suite too.
"""

import pytest

from repro.core.schemes import BASELINE, Scheme
from repro.parallel import (
    ResilienceConfig,
    SweepJournal,
    SweepRunner,
    run_resilient,
)
from repro.parallel.chaos import (
    CHAOS_PLAN_ENV,
    ChaosPoisonError,
    apply_chaos_directive,
    chaos_cell_key,
    chaos_cells,
    run_chaos_campaign,
    write_chaos_plan,
)


def spec_data(workload="QE", scheme="proteus", seed=3):
    return {"workload": workload, "scheme": scheme, "seed": seed}


def plan_env(monkeypatch, tmp_path, cells, hang_seconds=30.0):
    plan = write_chaos_plan(
        tmp_path / "plan.json", cells, tmp_path / "markers",
        hang_seconds=hang_seconds,
    )
    monkeypatch.setenv(CHAOS_PLAN_ENV, str(plan))


def test_no_plan_is_a_noop(monkeypatch):
    monkeypatch.delenv(CHAOS_PLAN_ENV, raising=False)
    apply_chaos_directive(spec_data())  # must not raise


def test_unreadable_plan_is_a_noop(monkeypatch, tmp_path):
    monkeypatch.setenv(CHAOS_PLAN_ENV, str(tmp_path / "absent.json"))
    apply_chaos_directive(spec_data())
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    monkeypatch.setenv(CHAOS_PLAN_ENV, str(bad))
    apply_chaos_directive(spec_data())


def test_cell_without_directive_is_untouched(monkeypatch, tmp_path):
    key = chaos_cell_key(spec_data())
    plan_env(monkeypatch, tmp_path, {key: "fail"})
    apply_chaos_directive(spec_data(workload="HM"))  # different cell


def test_fail_directive_fires_exactly_once(monkeypatch, tmp_path):
    key = chaos_cell_key(spec_data())
    plan_env(monkeypatch, tmp_path, {key: "fail"})
    with pytest.raises(RuntimeError, match="injected transient failure"):
        apply_chaos_directive(spec_data())
    # The marker file spends the directive: the retry sails through.
    apply_chaos_directive(spec_data())
    marker_files = list((tmp_path / "markers").iterdir())
    assert len(marker_files) == 1
    assert marker_files[0].name.endswith(".fail.fired")


def test_poison_directive_always_fires(monkeypatch, tmp_path):
    key = chaos_cell_key(spec_data())
    plan_env(monkeypatch, tmp_path, {key: "poison"})
    for _ in range(3):
        with pytest.raises(ChaosPoisonError):
            apply_chaos_directive(spec_data())
    assert not list((tmp_path / "markers").iterdir())


def test_interrupt_directive_raises_keyboard_interrupt(monkeypatch, tmp_path):
    key = chaos_cell_key(spec_data())
    plan_env(monkeypatch, tmp_path, {key: "interrupt"})
    with pytest.raises(KeyboardInterrupt):
        apply_chaos_directive(spec_data())


def test_write_plan_rejects_unknown_directive(tmp_path):
    with pytest.raises(ValueError):
        write_chaos_plan(tmp_path / "plan.json", {"k": "explode"}, tmp_path)


# -- KeyboardInterrupt propagation (regression) ----------------------------
#
# A Ctrl-C — here injected in a worker via the chaos "interrupt"
# directive — must propagate out of the pool fan-out promptly instead of
# being swallowed or waiting out the rest of the batch.


def _interrupt_second(value):
    if value == 1:
        raise KeyboardInterrupt("injected")
    return value * 10


@pytest.mark.parametrize(
    "config", [None, ResilienceConfig(max_retries=1)], ids=["fail-fast", "heal"]
)
def test_run_resilient_propagates_keyboard_interrupt(config):
    # The interrupt is the user's, not the task's: even with a retry
    # budget to spend, nothing is retried or quarantined.
    tasks = [(f"t{value}", value) for value in range(4)]
    with pytest.raises(KeyboardInterrupt):
        run_resilient(_interrupt_second, tasks, jobs=2, config=config)


def test_sweep_runner_propagates_keyboard_interrupt(monkeypatch, tmp_path):
    cells = chaos_cells(
        workloads=("QE",), schemes=(BASELINE, Scheme.PROTEUS), sim_ops=4
    )
    victim = sorted(cells)[0]
    plan_env(monkeypatch, tmp_path, {victim: "interrupt"})
    runner = SweepRunner(jobs=2)
    with pytest.raises(KeyboardInterrupt):
        runner.run_cells([cells[key] for key in sorted(cells)])


def test_journaled_sweep_runner_propagates_keyboard_interrupt(
    monkeypatch, tmp_path
):
    cells = chaos_cells(
        workloads=("QE",), schemes=(BASELINE, Scheme.PROTEUS), sim_ops=4
    )
    victim = sorted(cells)[0]
    plan_env(monkeypatch, tmp_path, {victim: "interrupt"})
    with SweepJournal(tmp_path / "sweep.jsonl") as journal:
        runner = SweepRunner(jobs=2, journal=journal)
        with pytest.raises(KeyboardInterrupt):
            runner.run_cells([cells[key] for key in sorted(cells)])


# -- one small in-process round --------------------------------------------


def test_mini_chaos_campaign_converges(tmp_path):
    cells = chaos_cells(
        workloads=("QE",),
        schemes=(BASELINE, Scheme.ATOM, Scheme.PROTEUS),
        sim_ops=4,
    )
    campaign = run_chaos_campaign(
        rounds=1, seed=1, jobs=2, work_dir=tmp_path / "chaos", cells=cells
    )
    assert campaign.ok, campaign.report()
    (round_result,) = campaign.rounds
    assert round_result.cells == len(cells)
