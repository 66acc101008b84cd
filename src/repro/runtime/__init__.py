"""Parallel experiment engine: job specs, result cache, process-pool fan-out.

See DESIGN.md ("Parallel experiment engine") for the cache key scheme and
the determinism argument; tests/test_parallel_engine.py enforces that
parallel and serial execution are bit-identical.  The fault-tolerance layer
(retries, timeouts, pool rebuilds, quarantine) is documented in DESIGN.md
§11 and exercised by tests/test_runtime_faulttol.py.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".cache": (
        "DEFAULT_CACHE_DIRNAME", "LOCKS_DIRNAME", "QUARANTINE_DIRNAME", "EntryClaim",
        "ResultCache", "code_version_token", "result_checksum",
    ),
    ".io": ("atomic_write_text", "clean_stale_tmp", "fsync_dir"),
    ".jobspec": ("JobSpec", "canonical", "resolve_runner", "runner_path", "seed_job"),
    ".pool": (
        "ExecutionContext", "JobExecutionError", "WorkerPool", "current_context",
        "execute_job", "execution", "map_over_seeds",
    ),
    ".retry": (
        "NON_RETRYABLE", "ExecutionReport", "JobReport", "JobTimeoutError",
        "PoolBrokenError", "RetryPolicy",
    ),
})
