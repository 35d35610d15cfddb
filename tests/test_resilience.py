"""Self-healing execution tests: retries, timeouts, pool rebuilds,
quarantine, and journal integration.

Worker functions here fail *deterministically on the first attempt* via
marker files, so retried runs succeed without any timing dependence —
the same trick the chaos harness uses for its one-shot directives.
"""

import os
import random
import signal
import time

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.parallel.resilience as resilience
from repro.parallel.journal import SweepJournal
from repro.parallel.resilience import (
    BACKOFF_JITTER,
    ResilienceConfig,
    SweepExecutionError,
    last_run_report,
    resilient_map,
    run_resilient,
)

#: Fast backoff so retry-heavy tests don't dominate wall time.
FAST = dict(backoff_base=0.01, backoff_max=0.05)


def _ok(item):
    return {"value": item["value"]}


def _always_fail(item):
    raise RuntimeError(f"cell {item['value']} is poison")


def _fail_once(item):
    marker = item["marker"]
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError:
        return {"value": item["value"]}
    raise RuntimeError("transient failure (first attempt)")


def _kill_once(item):
    marker = item["marker"]
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError:
        return {"value": item["value"]}
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(item):
    marker = item["marker"]
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError:
        return {"value": item["value"]}
    time.sleep(60.0)


def _tasks(count, tmp_path=None, tag="t"):
    tasks = []
    for i in range(count):
        item = {"value": i}
        if tmp_path is not None:
            item["marker"] = str(tmp_path / f"{tag}-{i}.fired")
        tasks.append((f"{tag}{i}", item))
    return tasks


def test_inline_retry_then_succeed(tmp_path):
    config = ResilienceConfig(max_retries=2, **FAST)
    outcomes = run_resilient(_fail_once, _tasks(3, tmp_path), jobs=1, config=config)
    assert all(o.status == "done" for o in outcomes.values())
    assert all(o.attempts == 2 for o in outcomes.values())
    assert last_run_report().retried == 3
    assert not last_run_report().quarantined


def test_pool_retry_then_succeed(tmp_path):
    config = ResilienceConfig(max_retries=2, **FAST)
    outcomes = run_resilient(_fail_once, _tasks(3, tmp_path), jobs=2, config=config)
    assert all(o.status == "done" for o in outcomes.values())
    assert [outcomes[f"t{i}"].value for i in range(3)] == [
        {"value": 0}, {"value": 1}, {"value": 2}
    ]


def test_exhausted_task_is_quarantined_with_traceback(tmp_path):
    config = ResilienceConfig(max_retries=1, **FAST)
    tasks = _tasks(2) + [("bad", {"value": 99, "poison": True})]
    outcomes = run_resilient(_fail_if_poison, tasks, jobs=1, config=config)
    # The failing cell is quarantined; its neighbors still finish.
    assert outcomes["bad"].status == "quarantined"
    assert outcomes["bad"].attempts == 2  # max_retries + 1 executions
    assert "RuntimeError" in outcomes["bad"].error
    assert "poisoned" in outcomes["bad"].error
    assert outcomes["t0"].status == "done"
    report = last_run_report()
    assert len(report.quarantined) == 1
    assert report.quarantined[0].key == "bad"
    assert "poison" in report.quarantined[0].summary()


def test_quarantine_disabled_raises(tmp_path):
    # Neither a config nor a journal: the batch fails fast.
    with pytest.raises(SweepExecutionError) as excinfo:
        run_resilient(_always_fail, [("bad", {"value": 1})], jobs=1)
    assert excinfo.value.record.key == "bad"


def _count_then_fail(item):
    with open(item["counter"], "a") as handle:
        handle.write("x")
    raise RuntimeError(f"cell {item['value']} is poison")


@pytest.mark.parametrize("jobs", [1, 2])
def test_fail_fast_runs_a_failing_task_once(tmp_path, jobs):
    counter = tmp_path / "count"
    tasks = [("bad", {"value": 1, "counter": str(counter)})]
    with pytest.raises(SweepExecutionError) as excinfo:
        run_resilient(_count_then_fail, tasks, jobs=jobs)
    assert counter.read_text() == "x"
    assert str(excinfo.value.__cause__) == "cell 1 is poison"
    assert "cell 1 is poison" in str(excinfo.value)


def test_fail_fast_pool_raises_on_a_worker_crash(tmp_path):
    with pytest.raises(SweepExecutionError) as excinfo:
        run_resilient(_kill_once, _tasks(2, tmp_path, tag="k"), jobs=2)
    assert isinstance(excinfo.value.__cause__, BrokenProcessPool)


def test_worker_sigkill_rebuilds_pool_and_completes(tmp_path):
    config = ResilienceConfig(max_retries=2, **FAST)
    tasks = _tasks(4, tmp_path, tag="k")
    outcomes = run_resilient(_kill_once, tasks, jobs=2, config=config)
    assert all(o.status == "done" for o in outcomes.values())
    assert last_run_report().pool_rebuilds >= 1
    # Pool breaks charge no retries: every cell ran exactly one real
    # attempt (the kill died before returning, so the charged attempt
    # was rolled back on requeue).
    assert all(o.attempts == 1 for o in outcomes.values())


def test_cell_timeout_kills_stuck_worker_and_retries(tmp_path):
    config = ResilienceConfig(cell_timeout=0.5, max_retries=2, **FAST)
    tasks = _tasks(2, tmp_path, tag="h")
    outcomes = run_resilient(_hang_once, tasks, jobs=2, config=config)
    assert all(o.status == "done" for o in outcomes.values())
    report = last_run_report()
    assert report.pool_rebuilds >= 1
    assert report.retried >= 1


def test_timeout_exhaustion_quarantines_with_timeout_error():
    config = ResilienceConfig(cell_timeout=0.3, max_retries=0, **FAST)
    outcomes = run_resilient(
        _hang_forever, [("stuck", {"value": 1})], jobs=1, config=config
    )
    assert outcomes["stuck"].status == "quarantined"
    assert "TimeoutError" in outcomes["stuck"].error


def _hang_forever(item):
    time.sleep(60.0)


def test_journal_serves_finished_tasks_on_resume(tmp_path):
    path = tmp_path / "j.jsonl"
    with SweepJournal(path, code_version="v") as journal:
        outcomes = run_resilient(_ok, _tasks(3), jobs=1, journal=journal)
    assert all(not o.from_journal for o in outcomes.values())

    # Resume with a function that would fail: nothing may re-run.
    with SweepJournal(path, code_version="v") as journal:
        again = run_resilient(_always_fail, _tasks(3), jobs=1, journal=journal)
    assert all(o.status == "done" for o in again.values())
    assert all(o.from_journal for o in again.values())
    assert [again[f"t{i}"].value for i in range(3)] == [
        {"value": 0}, {"value": 1}, {"value": 2}
    ]


def test_journal_quarantine_sticks_across_resume(tmp_path):
    path = tmp_path / "j.jsonl"
    config = ResilienceConfig(max_retries=0, **FAST)
    with SweepJournal(path, code_version="v") as journal:
        run_resilient(
            _always_fail, [("bad", {"value": 1})], jobs=1, config=config,
            journal=journal,
        )
    # A resume never re-runs a quarantined task — even with a function
    # that would now succeed.
    with SweepJournal(path, code_version="v") as journal:
        again = run_resilient(_ok, [("bad", {"value": 1})], jobs=1, journal=journal)
    assert again["bad"].status == "quarantined"
    assert again["bad"].from_journal


def test_damaged_journal_payload_reruns_cell(tmp_path):
    path = tmp_path / "j.jsonl"
    with SweepJournal(path, code_version="v") as journal:
        run_resilient(_ok, _tasks(1), jobs=1, journal=journal)

    def _decode_strict(payload):
        return {"value": payload["value"]}

    # A decoder that rejects the recorded payload forces a safe re-run.
    def _decode_reject(payload):
        raise ValueError("payload validation failed")

    with SweepJournal(path, code_version="v") as journal:
        served = run_resilient(
            _ok, _tasks(1), jobs=1, journal=journal, decode=_decode_strict
        )
    assert served["t0"].from_journal

    with SweepJournal(path, code_version="v") as journal:
        rerun = run_resilient(
            _ok, _tasks(1), jobs=1, journal=journal, decode=_decode_reject
        )
    assert rerun["t0"].status == "done"
    assert not rerun["t0"].from_journal


def test_backoff_is_deterministic_and_draws_no_global_rng():
    config = ResilienceConfig(**FAST)
    state = random.getstate()
    first = config.backoff("cell-a", 1)
    assert random.getstate() == state  # seeded private stream only
    assert config.backoff("cell-a", 1) == first
    assert config.backoff("cell-b", 1) != first
    assert config.backoff("cell-a", 2) != first
    # Exponential shape, bounded: base * factor^(n-1) * (1 + jitter).
    assert 0.0 < first <= config.backoff_max * (1.0 + BACKOFF_JITTER)


def test_resilient_map_preserves_order_with_none_at_quarantine(tmp_path):
    config = ResilienceConfig(max_retries=0, **FAST)
    items = [{"value": 0}, {"value": 1, "poison": True}, {"value": 2}]
    keys = ["m0", "m1", "m2"]
    values, quarantined = resilient_map(
        _fail_if_poison, items, keys, jobs=1, config=config
    )
    assert values[0] == {"value": 0}
    assert values[1] is None
    assert values[2] == {"value": 2}
    assert [record.key for record in quarantined] == ["m1"]


def _fail_if_poison(item):
    if item.get("poison"):
        raise RuntimeError("poisoned")
    return {"value": item["value"]}


def test_duplicate_keys_collapse_to_one_execution(tmp_path):
    counter = tmp_path / "count"
    tasks = [("dup", {"value": 1, "counter": str(counter)})] * 3
    outcomes = run_resilient(_count_calls, tasks, jobs=1)
    assert len(outcomes) == 1
    assert counter.read_text() == "x"


def _count_calls(item):
    with open(item["counter"], "a") as handle:
        handle.write("x")
    return {"value": item["value"]}


def _break_first_submit(monkeypatch):
    """Make the first pool's first ``submit`` raise ``BrokenProcessPool``,
    as it does when a worker dies between two waits of the loop."""
    original = resilience._Loop._new_pool
    pools = []

    def new_pool(loop, workers):
        pool = original(loop, workers)
        if not pools:
            def submit(*args, **kwargs):
                del pool.submit
                raise BrokenProcessPool("a worker died before this submit")

            pool.submit = submit
        pools.append(pool)
        return pool

    monkeypatch.setattr(resilience._Loop, "_new_pool", new_pool)
    return pools


def test_pool_broken_at_submit_rebuilds_without_charging(monkeypatch):
    pools = _break_first_submit(monkeypatch)
    config = ResilienceConfig(max_retries=0, **FAST)
    outcomes = run_resilient(_ok, _tasks(4), jobs=2, config=config)
    assert [outcomes[f"t{i}"].value for i in range(4)] == [{"value": i} for i in range(4)]
    assert all(o.attempts == 1 for o in outcomes.values())
    report = last_run_report()
    assert (len(pools), report.pool_rebuilds, report.retried) == (2, 1, 0)


def test_fail_fast_pool_broken_at_submit_raises_sweep_error(monkeypatch):
    _break_first_submit(monkeypatch)
    with pytest.raises(SweepExecutionError) as excinfo:
        run_resilient(_ok, _tasks(2), jobs=2)
    assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
    assert excinfo.value.record.key == "t0"
