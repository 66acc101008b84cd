"""WorkerPool fault tolerance: retries, timeouts, watchdog, rebuild, fallback.

Runner functions live at module level so :class:`repro.runtime.JobSpec` can
address them across process boundaries.  Cross-attempt state (how often a
job failed/hung so far) is communicated through flag files in a per-test
directory — the only channel that survives a SIGKILLed worker.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro.runtime import (
    NON_RETRYABLE,
    ExecutionReport,
    JobExecutionError,
    JobTimeoutError,
    PoolBrokenError,
    ResultCache,
    RetryPolicy,
    WorkerPool,
    map_over_seeds,
    seed_job,
)

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05)


# ------------------------------------------------------- runner functions ----


def ok_runner(seed: int) -> dict[str, float]:
    return {"value": float(seed * 2)}


def flaky_runner(seed: int, flag_dir: str = "", fail_times: int = 1) -> dict[str, float]:
    """Raise on the first ``fail_times`` attempts of each seed, then succeed."""
    done = len(list(Path(flag_dir).glob(f"attempt-{seed}-*")))
    if done < fail_times:
        (Path(flag_dir) / f"attempt-{seed}-{done}").touch()
        raise RuntimeError(f"transient #{done} for seed {seed}")
    return {"value": float(seed * 2)}


def doomed_runner(seed: int) -> dict[str, float]:
    raise RuntimeError(f"always broken (seed {seed})")


def bad_input_runner(seed: int) -> dict[str, float]:
    raise ValueError("deterministic bad input")


def hang_once_runner(seed: int, flag_dir: str = "") -> dict[str, float]:
    """Park forever on the first attempt; succeed on the retry."""
    flag = Path(flag_dir) / f"hang-{seed}"
    try:
        flag.touch(exist_ok=False)
    except FileExistsError:
        return {"value": float(seed)}
    time.sleep(3600.0)
    return {"value": -1.0}  # pragma: no cover - the watchdog kills us first


def hang_always_runner(seed: int) -> dict[str, float]:
    time.sleep(3600.0)
    return {"value": -1.0}  # pragma: no cover


def suicide_runner(seed: int, flag_dir: str = "", deaths: int = 1) -> dict[str, float]:
    """SIGKILL the worker on the first ``deaths`` attempts, then succeed."""
    done = len(list(Path(flag_dir).glob(f"death-{seed}-*")))
    if done < deaths:
        (Path(flag_dir) / f"death-{seed}-{done}").touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": float(seed * 3)}


# ------------------------------------------------------------ RetryPolicy ----


def test_backoff_is_exponential_capped_and_deterministic():
    policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=3.0)
    assert policy.backoff_s(1, key="a") == policy.backoff_s(1, key="a")
    assert policy.backoff_s(1, key="a") != policy.backoff_s(1, key="b")
    # jitter multiplies by at most (1 + jitter), never shrinks below base
    for attempt, base in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 3.0), (9, 3.0)):
        value = policy.backoff_s(attempt, key="x")
        assert base <= value <= base * (1.0 + policy.jitter)


def test_retryable_classification():
    policy = RetryPolicy()
    assert policy.retryable(RuntimeError("boom"))
    assert policy.retryable(JobTimeoutError("slow"))
    assert policy.retryable(PoolBrokenError("dead"))
    for exc_type in NON_RETRYABLE:
        assert not policy.retryable(exc_type("deterministic"))


def test_execution_report_aggregates_and_serializes():
    report = ExecutionReport()
    report.job(1).retries += 1
    report.job(1).errors.append("RuntimeError: x")
    report.job(2).timeouts += 1
    as_dict = report.as_dict()
    assert report.total_retries == 1
    assert report.total_timeouts == 1
    assert report.last_error == "RuntimeError: x"
    assert as_dict == {
        "retries": 1,
        "timeouts": 1,
        "pool_rebuilds": 0,
        "worker_kills": 0,
        "degraded_to_serial": False,
        "last_error": "RuntimeError: x",
    }


# ---------------------------------------------------------- serial driver ----


def test_serial_retries_until_success(tmp_path):
    specs = {
        s: seed_job(flaky_runner, flag_dir=str(tmp_path), fail_times=2).with_seed(s)
        for s in (1, 2)
    }
    report = ExecutionReport()
    with WorkerPool(jobs=1, retry=FAST) as pool:
        results, failures = pool.run(specs, report=report)
    assert failures == {}
    assert results == {1: {"value": 2.0}, 2: {"value": 4.0}}
    assert report.job(1).attempts == 2 and report.job(1).retries == 2
    assert report.job(1).ok


def test_serial_exhausts_attempts_and_reports_last_error():
    specs = {7: seed_job(doomed_runner).with_seed(7)}
    report = ExecutionReport()
    with WorkerPool(jobs=1, retry=FAST) as pool:
        results, failures = pool.run(specs, report=report)
    assert results == {}
    assert "always broken (seed 7)" in failures[7]
    assert report.job(7).attempts == FAST.max_attempts
    assert not report.job(7).ok


def test_non_retryable_errors_fail_fast():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01)
    specs = {1: seed_job(bad_input_runner).with_seed(1)}
    report = ExecutionReport()
    with WorkerPool(jobs=1, retry=policy) as pool:
        _, failures = pool.run(specs, report=report)
    assert "deterministic bad input" in failures[1]
    assert report.job(1).attempts == 1  # no pointless re-runs


# -------------------------------------------------------- parallel driver ----


def test_parallel_retries_flaky_jobs(tmp_path):
    specs = {
        s: seed_job(flaky_runner, flag_dir=str(tmp_path)).with_seed(s)
        for s in (1, 2, 3)
    }
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=FAST) as pool:
        results, failures = pool.run(specs, report=report)
    assert failures == {}
    assert results == {1: {"value": 2.0}, 2: {"value": 4.0}, 3: {"value": 6.0}}
    assert report.total_retries >= 3  # every seed failed once before passing


def test_parallel_mixed_success_and_failure(tmp_path):
    specs = {
        1: seed_job(ok_runner).with_seed(1),
        2: seed_job(doomed_runner).with_seed(2),
    }
    with WorkerPool(jobs=2, retry=FAST) as pool:
        results, failures = pool.run(specs)
    assert results == {1: {"value": 2.0}}
    assert list(failures) == [2] and "always broken" in failures[2]


def test_watchdog_kills_hung_worker_and_retry_succeeds(tmp_path):
    policy = RetryPolicy(max_attempts=3, timeout_s=0.5, backoff_base_s=0.01)
    specs = {
        s: seed_job(hang_once_runner, flag_dir=str(tmp_path)).with_seed(s)
        for s in (1, 2)
    }
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=policy) as pool:
        results, failures = pool.run(specs, report=report)
        assert pool.worker_kills >= 1
        assert not pool.degraded  # watchdog kills never degrade the pool
    assert failures == {}
    assert results == {1: {"value": 1.0}, 2: {"value": 2.0}}
    assert report.total_timeouts >= 1
    assert report.worker_kills >= 1


def test_watchdog_exhausts_attempts_of_a_job_that_always_hangs():
    policy = RetryPolicy(max_attempts=2, timeout_s=0.3, backoff_base_s=0.01)
    specs = {5: seed_job(hang_always_runner).with_seed(5)}
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=policy) as pool:
        results, failures = pool.run(specs, report=report)
    assert results == {}
    assert "JobTimeoutError" in failures[5]
    assert report.job(5).timeouts == 2
    assert report.job(5).attempts == 2


def test_killed_worker_is_a_free_retry(tmp_path):
    specs = {4: seed_job(suicide_runner, flag_dir=str(tmp_path)).with_seed(4)}
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=FAST) as pool:
        results, failures = pool.run(specs, report=report)
        assert pool.rebuilds >= 1
    assert failures == {}
    assert results == {4: {"value": 12.0}}
    assert report.job(4).attempts == 0  # pool breaks don't consume the budget
    assert report.job(4).retries >= 1
    assert any("PoolBrokenError" in e for e in report.job(4).errors)


def test_pool_that_keeps_dying_degrades_to_serial(tmp_path):
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01, max_pool_rebuilds=1)
    # Two suicides: break #1 rebuilds, break #2 exceeds the budget and the
    # pool degrades; by then two flag files exist, so the serial in-process
    # attempt (which must never SIGKILL the test process) succeeds.
    specs = {
        1: seed_job(suicide_runner, flag_dir=str(tmp_path), deaths=2).with_seed(1)
    }
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=policy) as pool:
        results, failures = pool.run(specs, report=report)
        assert pool.degraded
        assert pool.rebuilds == 2
    assert failures == {}
    assert results == {1: {"value": 3.0}}
    assert report.degraded_to_serial


# ---------------------------------------------------- map_over_seeds glue ----


def test_map_over_seeds_uses_caller_pool_and_reports(tmp_path):
    job = seed_job(flaky_runner, flag_dir=str(tmp_path))
    report = ExecutionReport()
    with WorkerPool(jobs=2, retry=FAST) as pool:
        out = map_over_seeds(job, [1, 2], jobs=2, pool=pool, report=report)
    assert out == {1: {"value": 2.0}, 2: {"value": 4.0}}
    assert report.total_retries >= 2


def test_map_over_seeds_raises_after_caching_survivors(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = seed_job(doomed_runner)
    ok = seed_job(ok_runner)
    with pytest.raises(JobExecutionError) as excinfo:
        map_over_seeds(job, [3], jobs=1, cache=cache, retry=FAST)
    assert "[3] RuntimeError: always broken (seed 3)" in str(excinfo.value)
    assert excinfo.value.failures == {
        3: "RuntimeError: always broken (seed 3)"
    }
    # successful sibling seeds of a different job land in the cache normally
    map_over_seeds(ok, [1, 2], jobs=1, cache=cache)
    assert cache.stats()["stores"] == 2


def test_map_over_seeds_partial_failure_caches_successes(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    flags = tmp_path / "flags"
    flags.mkdir()
    # seed 1 fails more times than the budget allows; seed 2 passes first try
    job = seed_job(flaky_runner, flag_dir=str(flags), fail_times=99)

    with pytest.raises(JobExecutionError):
        map_over_seeds(job, [1], jobs=1, cache=cache, retry=FAST)
    map_over_seeds(seed_job(ok_runner), [2], jobs=1, cache=cache)
    assert cache.stats()["stores"] == 1
    assert map_over_seeds(seed_job(ok_runner), [2]) == {2: {"value": 4.0}}


def test_worker_pids_and_inflight_reflect_pool_state():
    pool = WorkerPool(jobs=2, retry=FAST)
    assert pool.worker_pids() == []
    assert pool.inflight_count() == 0
    results, failures = pool.run({1: seed_job(ok_runner).with_seed(1)})
    assert failures == {}
    assert pool.worker_pids()  # workers stay warm between runs
    pool.shutdown()
    assert pool.worker_pids() == []
