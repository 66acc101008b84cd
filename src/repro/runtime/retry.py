"""Retry, timeout and backoff policy for fan-out job execution.

One :class:`RetryPolicy` governs how :class:`repro.runtime.pool.WorkerPool`
reacts when a job misbehaves:

* a job that raises a *retryable* exception is re-run after an exponential
  backoff with deterministic jitter, up to ``max_attempts`` total attempts;
* a job that exceeds ``timeout_s`` of wall clock is killed (its worker
  process is SIGKILLed by the watchdog) and the timeout consumes one
  attempt;
* a broken process pool is rebuilt up to ``max_pool_rebuilds`` times; after
  that the pool degrades to serial in-process execution, which cannot lose
  workers (but also cannot enforce timeouts — a hung job then hangs the
  run, which is the honest fallback behavior).

Determinism note: the jitter is *deterministic* — seeded from the job key
and attempt number — so two identical campaign runs retry on an identical
schedule.  Nothing here touches simulation RNG streams; retries re-run the
exact same :class:`~repro.runtime.jobspec.JobSpec`, so a retried job returns
bit-identical metrics to an undisturbed one.

:class:`ExecutionReport` accumulates what actually happened (per-job
attempts, retries, errors; pool rebuilds; degradation) so callers — the
campaign runner foremost — can persist the retry budget spent into
the campaign manifest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any


class JobTimeoutError(RuntimeError):
    """A job exceeded the per-job wall-clock budget and was killed."""


class PoolBrokenError(RuntimeError):
    """The process pool died under a job (worker killed, interpreter lost)."""


#: Exception types that indicate a deterministic caller error — retrying the
#: identical JobSpec can only reproduce them, so the budget is not wasted.
NON_RETRYABLE = (ValueError, TypeError, KeyError, AttributeError)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a job failed."""

    #: Total attempts per job (1 = no retry).
    max_attempts: int = 3
    #: Per-job wall clock budget; None disables the watchdog.  The clock
    #: starts when the job is first observed *running* (not while queued
    #: behind other jobs), so a deep queue cannot fake a timeout.
    timeout_s: float | None = None
    #: First backoff delay; subsequent delays multiply by ``backoff_factor``.
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    #: Jitter fraction added on top of the exponential delay (0 disables).
    jitter: float = 0.1
    #: Process-pool rebuilds tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt of the same job."""
        return not isinstance(exc, NON_RETRYABLE)

    def backoff_s(self, attempt: int, key: Any = None) -> float:
        """Delay before attempt ``attempt + 1`` (``attempt`` >= 1 completed).

        Exponential with a bounded ceiling plus *deterministic* jitter: the
        jitter RNG is seeded from ``(key, attempt)``, so identical reruns
        back off identically while distinct jobs still de-synchronize.
        """
        delay = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter > 0:
            rng = random.Random(f"{key!r}:{attempt}")
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass
class JobReport:
    """What happened to one job across all its attempts."""

    key: Any
    attempts: int = 0  # attempts that ran and failed with the job's own error
    retries: int = 0  # total re-runs for any reason (errors + pool breaks)
    timeouts: int = 0
    ok: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def last_error(self) -> str | None:
        return self.errors[-1] if self.errors else None


@dataclass
class ExecutionReport:
    """Aggregate fault/retry accounting for one ``WorkerPool.run`` call."""

    jobs: dict[Any, JobReport] = field(default_factory=dict)
    pool_rebuilds: int = 0
    worker_kills: int = 0
    degraded_to_serial: bool = False

    def job(self, key: Any) -> JobReport:
        report = self.jobs.get(key)
        if report is None:
            report = self.jobs[key] = JobReport(key=key)
        return report

    @property
    def total_retries(self) -> int:
        return sum(job.retries for job in self.jobs.values())

    @property
    def total_timeouts(self) -> int:
        return sum(job.timeouts for job in self.jobs.values())

    @property
    def last_error(self) -> str | None:
        """Most recent error message across all jobs (for status surfaces)."""
        last: str | None = None
        for job in self.jobs.values():
            if job.errors:
                last = job.errors[-1]
        return last

    def as_dict(self) -> dict[str, Any]:
        """Plain-data summary for manifests / CLI output."""
        return {
            "retries": self.total_retries,
            "timeouts": self.total_timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "worker_kills": self.worker_kills,
            "degraded_to_serial": self.degraded_to_serial,
            "last_error": self.last_error,
        }
