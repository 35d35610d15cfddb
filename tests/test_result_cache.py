"""Result-cache tests: hit/miss accounting, invalidation on config and
code-version changes, corruption fallback, and the headline guarantee —
a cached re-run is byte-identical to a cold one for every scheme."""

import json

import pytest

from repro.core.schemes import Scheme
from repro.parallel import CellSpec, ResultCache, SweepRunner, result_bytes
from repro.sim.config import fast_nvm_config

TINY = dict(threads=1, seed=3, init_ops=200, sim_ops=6)


def tiny_spec(scheme=Scheme.PROTEUS, config=None, workload="QE"):
    return CellSpec(
        workload=workload,
        scheme=scheme,
        config=config if config is not None else fast_nvm_config(cores=1),
        **TINY,
    )


def test_miss_then_hit(tmp_path):
    spec = tiny_spec()
    cache = ResultCache(tmp_path, code_version="v1")
    assert cache.load(spec) is None
    assert cache.misses == 1

    result = SweepRunner(jobs=1).run_one(spec)
    cache.store(spec, result)
    assert cache.stores == 1
    assert cache.path_for(spec).exists()

    loaded = cache.load(spec)
    assert loaded is not None
    assert cache.hits == 1
    assert result_bytes(loaded) == result_bytes(result)


def test_config_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path, code_version="v1")
    spec = tiny_spec()
    cache.store(spec, SweepRunner(jobs=1).run_one(spec))
    changed = tiny_spec(config=fast_nvm_config(cores=1).with_proteus(llt_ways=1))
    assert cache.load(changed) is None


def test_code_version_bump_invalidates(tmp_path):
    spec = tiny_spec()
    result = SweepRunner(jobs=1).run_one(spec)
    ResultCache(tmp_path, code_version="v1").store(spec, result)
    assert ResultCache(tmp_path, code_version="v2").load(spec) is None
    assert ResultCache(tmp_path, code_version="v1").load(spec) is not None


def test_corrupted_file_is_a_miss_not_a_crash(tmp_path):
    spec = tiny_spec()
    cache = ResultCache(tmp_path, code_version="v1")
    result = SweepRunner(jobs=1).run_one(spec)
    cache.store(spec, result)

    for garbage in ("not json at all", '{"schema": 999}', '{"truncated'):
        cache.path_for(spec).write_text(garbage)
        fresh = ResultCache(tmp_path, code_version="v1")
        assert fresh.load(spec) is None
        assert fresh.corrupt + fresh.misses >= 1

    # A runner backed by the corrupted cache falls back to simulation
    # and overwrites the bad entry with the fresh result.
    cache.path_for(spec).write_text("garbage")
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path, code_version="v1"))
    recovered = runner.run_one(spec)
    assert result_bytes(recovered) == result_bytes(result)
    assert runner.simulated == 1
    assert json.loads(cache.path_for(spec).read_text())["cycles"] == result.cycles


@pytest.mark.parametrize("scheme", [Scheme.PMEM, Scheme.ATOM, Scheme.PROTEUS])
def test_cached_rerun_byte_identical_to_cold(tmp_path, scheme):
    spec = tiny_spec(scheme=scheme)
    cold_cache = ResultCache(tmp_path, code_version="v1")
    cold = SweepRunner(jobs=1, cache=cold_cache).run_one(spec)
    assert cold_cache.stores == 1

    warm_cache = ResultCache(tmp_path, code_version="v1")
    warm_runner = SweepRunner(jobs=1, cache=warm_cache)
    warm = warm_runner.run_one(spec)
    assert warm_cache.hits == 1
    assert warm_runner.simulated == 0
    assert result_bytes(warm) == result_bytes(cold)
    assert warm.stats.counters == cold.stats.counters


def test_store_failures_are_nonfatal(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should go")
    cache = ResultCache(blocker / "sub", code_version="v1")
    spec = tiny_spec()
    result = SweepRunner(jobs=1).run_one(spec)
    cache.store(spec, result)  # must not raise
    assert cache.stores == 0
