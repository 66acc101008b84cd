"""Process-pool fan-out over seeds, with caching, retries and an ambient context.

The paper's methodology (median of 5 seeded runs per point) is embarrassingly
parallel; :func:`map_over_seeds` is the single place that parallelism lives.
Determinism is preserved by construction:

* every seed's simulation builds its own ``Scenario(seed=...)`` with a
  private RNG — no state is shared across seeds in either mode;
* results are keyed by seed, never by completion order;
* workers receive a pickle-safe :class:`~repro.runtime.jobspec.JobSpec`
  (module path + kwargs), so the exact same function runs with the exact
  same arguments whether in-process or in a pool worker.

Fault tolerance lives in :class:`WorkerPool` (the repro.faults harness
plane): per-job wall-clock timeouts enforced by a watchdog that SIGKILLs
hung workers, bounded retries with exponential backoff + deterministic
jitter (:class:`~repro.runtime.retry.RetryPolicy`), transparent rebuild of a
broken process pool, and graceful degradation to serial in-process execution
when the pool keeps dying.  A retried job re-runs the identical JobSpec, so
its metrics are bit-identical to an undisturbed run — retries change wall
clock, never results.

Experiments themselves stay oblivious: they build JobSpecs and the ambient
:class:`ExecutionContext` (installed by the CLI's ``--jobs`` flag or
``benchmarks/run_all.py``) decides whether those fan out.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.runtime.cache import ResultCache
from repro.runtime.jobspec import JobSpec
from repro.runtime.retry import ExecutionReport, JobTimeoutError, RetryPolicy

if TYPE_CHECKING:
    from repro.phy.channel import ChannelConfig

#: Watchdog poll interval while futures are in flight with a timeout armed.
_POLL_S = 0.05


class JobExecutionError(RuntimeError):
    """One or more jobs exhausted their retry budget.

    ``failures`` maps the job key (the seed, for :func:`map_over_seeds`) to
    the last error message; successful sibling jobs were already cached by
    the caller before this was raised.
    """

    def __init__(self, failures: Mapping[Any, str]):
        self.failures = dict(failures)
        detail = "; ".join(f"[{key}] {message}" for key, message in self.failures.items())
        super().__init__(
            f"{len(self.failures)} job(s) failed after retries: {detail}"
        )


@dataclass
class ExecutionContext:
    """Ambient execution policy: worker count, result cache, retry policy."""

    jobs: int = 1
    cache: ResultCache | None = None
    retry: RetryPolicy | None = None


_context = ExecutionContext()


def current_context() -> ExecutionContext:
    return _context


@contextmanager
def execution(
    jobs: int = 1,
    cache: ResultCache | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[ExecutionContext]:
    """Install an :class:`ExecutionContext` for the duration of a block."""
    global _context
    previous = _context
    _context = ExecutionContext(jobs=max(1, int(jobs)), cache=cache, retry=retry)
    try:
        yield _context
    finally:
        _context = previous


def _ambient_selection() -> ChannelConfig | None:
    """Snapshot the ambient channel for shipping to a worker.

    ContextVars do not cross process boundaries: without this, a campaign
    running under ``use_channel("sinr")`` with ``--jobs N`` would silently
    compute pairwise results in the workers while the parent caches them
    under the sinr namespace.  Returns None for the default channel,
    keeping the common submit payload unchanged.
    """
    from repro.phy.channel import DEFAULT_CHANNEL, current_channel

    channel = current_channel()
    return None if channel == DEFAULT_CHANNEL else channel


def execute_job(spec: JobSpec, ambient: ChannelConfig | None = None) -> dict[str, float]:
    """Worker entry point: run one seeded job (module-level, picklable).

    ``ambient`` re-establishes the submitting process's channel selection
    (:func:`_ambient_selection`) inside the worker.
    """
    if ambient is None:
        return spec.run()
    from repro.phy.channel import use_channel

    with use_channel(ambient):
        return spec.run()


class _JobState:
    """Book-keeping for one job across its attempts inside a WorkerPool run."""

    __slots__ = (
        "spec",
        "attempts",
        "future",
        "started",
        "deadline",
        "next_due",
        "finished",
    )

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.attempts = 0  # attempts that ran and failed with the job's own error
        self.future: Future | None = None
        self.started: float | None = None  # monotonic time first seen running
        self.deadline: float | None = None
        self.next_due = 0.0  # monotonic time before which backoff blocks resubmit
        self.finished = False


class WorkerPool:
    """Fault-tolerant job fan-out: process pool + watchdog + retry + fallback.

    Owns (and rebuilds) a :class:`ProcessPoolExecutor`.  ``run`` executes a
    batch of :class:`JobSpec` jobs under the configured
    :class:`~repro.runtime.retry.RetryPolicy` and returns
    ``(results, failures)`` — it never raises on job failure, so a campaign
    can record the failure and move on.  The pool survives:

    * **hung jobs** — with ``retry.timeout_s`` set, a watchdog SIGKILLs the
      workers once a job overruns its wall-clock budget (the clock starts
      when the job is first observed *running*); the timeout consumes one of
      the job's attempts, innocent co-scheduled jobs are resubmitted free;
    * **killed workers** — a broken pool is torn down and rebuilt; in-flight
      jobs are resubmitted without consuming their attempt budget (bounded
      globally by ``retry.max_pool_rebuilds``);
    * **a pool that keeps dying** — after ``max_pool_rebuilds`` spontaneous
      breaks the pool degrades to serial in-process execution, which cannot
      lose workers (timeouts are then unenforceable: a hung job hangs the
      run, the honest single-process behavior).

    Thread-compatibility: one ``run`` at a time per pool (the campaign
    runner's sequential point loop satisfies this trivially).
    """

    def __init__(self, jobs: int = 1, retry: RetryPolicy | None = None) -> None:
        self.jobs = max(1, int(jobs))
        self.retry = retry if retry is not None else RetryPolicy()
        self.rebuilds = 0  # spontaneous pool breaks (counts toward degradation)
        self.worker_kills = 0  # deliberate watchdog kills (does not)
        self.degraded = False
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------ lifecycle --

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (chaos harness hook)."""
        executor = self._executor
        if executor is None:
            return []
        processes = getattr(executor, "_processes", None) or {}
        return [
            proc.pid
            for proc in list(processes.values())
            if proc.pid is not None and proc.is_alive()
        ]

    def inflight_count(self) -> int:
        """Jobs submitted and not yet settled (chaos harness hook)."""
        executor = self._executor
        if executor is None:
            return 0
        return len(getattr(executor, "_pending_work_items", None) or {})

    def _kill_workers(self) -> int:
        """SIGKILL every worker of the current executor; returns the count."""
        executor = self._executor
        if executor is None:
            return 0
        processes = list((getattr(executor, "_processes", None) or {}).values())
        killed = 0
        for proc in processes:
            try:
                if proc.is_alive():
                    proc.kill()
                    killed += 1
            except Exception:  # noqa: BLE001 - already-dead / platform quirks
                pass
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except Exception:  # noqa: BLE001
                pass
        return killed

    def _discard_executor(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - broken pools may refuse politely
                pass

    def shutdown(self) -> None:
        """Release the worker processes (idempotent)."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ run --

    def run(
        self,
        specs: Mapping[Any, JobSpec],
        report: ExecutionReport | None = None,
    ) -> tuple[dict[Any, dict[str, float]], dict[Any, str]]:
        """Execute every spec; returns ``(results, failures)`` keyed like specs."""
        if report is None:
            report = ExecutionReport()
        states = {key: _JobState(spec) for key, spec in specs.items()}
        results: dict[Any, dict[str, float]] = {}
        failures: dict[Any, str] = {}
        if self.jobs <= 1 or self.degraded:
            if self.degraded:
                report.degraded_to_serial = True
            self._run_serial(states, results, failures, report)
        else:
            self._run_parallel(states, results, failures, report)
        return results, failures

    # ------------------------------------------------------- parallel drive --

    def _run_parallel(
        self,
        states: dict[Any, _JobState],
        results: dict[Any, dict[str, float]],
        failures: dict[Any, str],
        report: ExecutionReport,
    ) -> None:
        retry = self.retry
        inflight: dict[Future, Any] = {}
        while True:
            remaining = [key for key, st in states.items() if not st.finished]
            if not remaining:
                return
            if self.degraded:
                report.degraded_to_serial = True
                self._run_serial(states, results, failures, report)
                return
            executor = self._ensure_executor()

            now = time.monotonic()
            backoff_pending = False
            broke = False
            for key in remaining:
                st = states[key]
                if st.future is not None:
                    continue
                if now < st.next_due:
                    backoff_pending = True
                    continue
                try:
                    st.future = executor.submit(
                        execute_job, st.spec, _ambient_selection()
                    )
                except (BrokenExecutor, RuntimeError):
                    self._on_pool_break(states, inflight, report)
                    broke = True
                    break
                st.started = None
                st.deadline = None
                inflight[st.future] = key
            if broke:
                continue

            if not inflight:
                # Everything runnable is waiting out a backoff window.
                due = min(
                    st.next_due
                    for key, st in states.items()
                    if not st.finished and st.future is None
                )
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, 0.25))
                continue

            if retry.timeout_s is not None:
                poll: float | None = _POLL_S
            elif backoff_pending:
                poll = 0.1
            else:
                poll = None  # nothing to watch: block until a future settles
            done, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)

            for future in done:
                key = inflight.pop(future)
                st = states[key]
                st.future = None
                try:
                    outcome = dict(future.result())
                except BrokenExecutor:
                    # The pool died under this job; resubmission is free.
                    # (Recorded here: the future is already out of `inflight`,
                    # so _on_pool_break won't see it.)
                    st.next_due = 0.0
                    job = report.job(key)
                    job.retries += 1
                    job.errors.append(
                        "PoolBrokenError: a worker process died; job resubmitted"
                    )
                    broke = True
                except Exception as exc:  # noqa: BLE001 - job's own failure
                    self._record_failure(key, st, exc, failures, report)
                else:
                    results[key] = outcome
                    st.finished = True
                    report.job(key).ok = True
            if broke:
                self._on_pool_break(states, inflight, report)
                continue

            if retry.timeout_s is not None and inflight:
                self._watchdog(states, inflight, failures, report)

    def _watchdog(
        self,
        states: dict[Any, _JobState],
        inflight: dict[Future, Any],
        failures: dict[Any, str],
        report: ExecutionReport,
    ) -> None:
        """Kill the workers once any running job overruns its deadline."""
        retry = self.retry
        now = time.monotonic()
        overdue: list[Any] = []
        for future, key in inflight.items():
            st = states[key]
            if st.started is None:
                if future.running():
                    st.started = now
                    st.deadline = now + retry.timeout_s  # type: ignore[operator]
            elif st.deadline is not None and now >= st.deadline:
                overdue.append(key)
        if not overdue:
            return
        # ProcessPoolExecutor cannot cancel a running call; the only way to
        # reclaim the worker is to kill it (taking the pool down with it).
        killed = self._kill_workers()
        self.worker_kills += killed
        report.worker_kills += killed
        self._discard_executor()
        for future, key in list(inflight.items()):
            st = states[key]
            st.future = None
            if key in overdue:
                exc = JobTimeoutError(
                    f"job exceeded timeout_s={retry.timeout_s} and its worker "
                    "was killed"
                )
                self._record_failure(key, st, exc, failures, report, timeout=True)
            else:
                # Innocent bystander of the teardown: resubmit free of charge.
                report.job(key).retries += 1
                st.next_due = 0.0
        inflight.clear()

    def _on_pool_break(
        self,
        states: dict[Any, _JobState],
        inflight: dict[Future, Any],
        report: ExecutionReport,
    ) -> None:
        """The pool died spontaneously: rebuild (or degrade) and resubmit."""
        self._kill_workers()  # reap any stragglers of the broken pool
        self._discard_executor()
        self.rebuilds += 1
        report.pool_rebuilds += 1
        for future, key in list(inflight.items()):
            st = states[key]
            st.future = None
            st.next_due = 0.0
            job = report.job(key)
            job.retries += 1
            job.errors.append(
                "PoolBrokenError: a worker process died; job resubmitted"
            )
        inflight.clear()
        if self.rebuilds > self.retry.max_pool_rebuilds:
            self.degraded = True
            report.degraded_to_serial = True

    # --------------------------------------------------------- serial drive --

    def _run_serial(
        self,
        states: dict[Any, _JobState],
        results: dict[Any, dict[str, float]],
        failures: dict[Any, str],
        report: ExecutionReport,
    ) -> None:
        """In-process execution honoring the retry budget (no timeout kill)."""
        for key, st in states.items():
            if st.finished:
                continue
            while True:
                delay = st.next_due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    outcome = dict(execute_job(st.spec))
                except Exception as exc:  # noqa: BLE001 - job's own failure
                    self._record_failure(key, st, exc, failures, report)
                    if st.finished:
                        break
                    continue
                results[key] = outcome
                st.finished = True
                report.job(key).ok = True
                break

    # ----------------------------------------------------------- accounting --

    def _record_failure(
        self,
        key: Any,
        st: _JobState,
        exc: BaseException,
        failures: dict[Any, str],
        report: ExecutionReport,
        timeout: bool = False,
    ) -> None:
        retry = self.retry
        st.attempts += 1
        job = report.job(key)
        job.attempts += 1
        if timeout:
            job.timeouts += 1
        message = f"{type(exc).__name__}: {exc}"
        job.errors.append(message)
        if st.attempts >= retry.max_attempts or not retry.retryable(exc):
            st.finished = True
            failures[key] = message
            return
        job.retries += 1
        st.next_due = time.monotonic() + retry.backoff_s(st.attempts, key)


def map_over_seeds(
    run: JobSpec,
    seeds: Sequence[int],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    pool: WorkerPool | None = None,
    retry: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
) -> dict[int, dict[str, float]]:
    """Run one seeded job per seed; return ``{seed: metrics}`` in seed order.

    ``run`` is a pickle-safe :class:`JobSpec` (``seed_job(...)``); anything
    else raises ``TypeError``.  ``jobs``/``cache``/``retry`` default to the
    ambient :func:`execution` context.  ``pool`` reuses a caller-owned
    :class:`WorkerPool` (timeouts, retries, broken-pool recovery); without
    one, an ephemeral WorkerPool runs the seeds.  When any seed exhausts its
    retry budget, successful sibling seeds are cached first and a
    :class:`JobExecutionError` carrying ``{seed: error}`` is raised.
    ``report`` (an :class:`~repro.runtime.retry.ExecutionReport`) collects
    retry/timeout accounting for the caller's manifest.
    """
    if not isinstance(run, JobSpec):
        raise TypeError(
            f"map_over_seeds needs a JobSpec (see seed_job), not {type(run).__name__}"
        )
    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise ValueError("need at least one seed")
    if len(set(seed_list)) != len(seed_list):
        raise ValueError(f"duplicate seeds: {seed_list}")

    context = current_context()
    if jobs is None:
        jobs = context.jobs
    if cache is None:
        cache = context.cache
    if retry is None:
        retry = context.retry

    results: dict[int, dict[str, float]] = {}
    specs = {seed: run.with_seed(seed) for seed in seed_list}
    pending: list[int] = []
    waiting: list[int] = []  # another process claimed these entries
    claims: dict[int, Any] = {}
    for seed in seed_list:
        hit = cache.get(specs[seed]) if cache is not None else None
        if hit is not None:
            results[seed] = hit
            continue
        if cache is not None:
            claim = cache.try_claim(specs[seed])
            if claim is None:
                waiting.append(seed)
                continue
            claims[seed] = claim
        pending.append(seed)
    failures: dict[Any, str] = {}
    try:
        if pending:
            owned = None
            if pool is None:
                pool = owned = WorkerPool(jobs=min(jobs, len(pending)), retry=retry)
            try:
                ran, failures = pool.run(
                    {seed: specs[seed] for seed in pending}, report=report
                )
            finally:
                if owned is not None:
                    owned.shutdown()
            results.update(ran)
            if cache is not None:
                for seed in pending:
                    if seed in ran:
                        cache.put(specs[seed], ran[seed])
    finally:
        for claim in claims.values():
            claim.release()
    # Entries a concurrent process claimed: wait for its store instead of
    # recomputing.  If the holder crashed or never publishes, (re)claim and
    # compute in-process — duplicated work at worst, never a wrong or torn
    # result (stores are atomic and keyed identically).
    for seed in waiting:
        outcome = cache.wait_for(specs[seed])
        if outcome is None:
            claim = cache.try_claim(specs[seed])
            try:
                outcome = dict(execute_job(specs[seed]))
                cache.put(specs[seed], outcome)
            finally:
                if claim is not None:
                    claim.release()
        results[seed] = outcome
    if failures:
        raise JobExecutionError(failures)
    return {seed: results[seed] for seed in seed_list}
