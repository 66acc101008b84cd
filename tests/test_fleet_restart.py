"""Crash/restart convergence tests for the journaled fleet service.

Three escalation levels, all asserting the same invariant: every job the
service *accepted* (journal fsync'd before the 202) finishes exactly once,
and its merged ``results.csv`` is byte-identical to a single-host
``run_campaign`` of the same spec — no matter how the service died.

1. graceful shutdown (the SIGTERM path, in-thread via ``ServiceThread``):
   running jobs are journaled ``interrupted``, shard subprocesses killed,
   and a restarted service resumes them;
2. simulated crash (``ServiceThread.stop()`` journals nothing — replay
   must infer ``running -> interrupted`` on its own);
3. the real thing: a ``repro fleet serve`` OS process fed by concurrent
   submitters with mixed priorities, SIGKILLed mid-flight, restarted on
   the same root and port.  Also pins that SIGTERM exits 0.

The subprocess executor is used for in-thread restarts (LocalExecutor
shard threads cannot be interrupted and would race the restarted service
over the same shard directories); the SIGKILL test uses the local executor
because the kill takes the in-process shard work down with the service —
a genuine torn-mid-write crash.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")

from repro.campaign import run_campaign
from repro.campaign.spec import spec_from_dict
from repro.fleet import (
    FleetClientError,
    ServiceThread,
    fetch_results,
    get_json,
    submit_job,
    wait_for_job,
)

#: Quick spec: finishes fast, supplies the "first job done" kill trigger.
QUICK_DOC = {
    "campaign": {
        "name": "rst_quick",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.15,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
}

#: Heavier spec: still running when the quick one completes, so the kill
#: reliably catches jobs mid-flight.
SLOW_DOC = {
    "campaign": {
        "name": "rst_slow",
        "builder": "nav_pairs",
        "seeds": [1, 2, 3, 4],
        "duration_s": 2.0,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
}


def _single_host_bytes(tmp_path: Path, doc: dict) -> bytes:
    out = tmp_path / f"single-{doc['campaign']['name']}"
    if not (out / "results.csv").exists():
        run_campaign(spec_from_dict(doc), out_dir=out)
    return (out / "results.csv").read_bytes()


def _wait_status(url: str, job: str, states: set[str], timeout_s: float = 60.0) -> str:
    deadline = time.monotonic() + timeout_s
    while True:
        status = get_json(url, f"/jobs/{job}")["status"]
        if status in states:
            return status
        if time.monotonic() >= deadline:
            raise AssertionError(f"job {job} stuck in {status!r}, wanted {states}")
        time.sleep(0.05)


class _ParkedThread(threading.Thread):
    """Alive until joined: pins the window where ``stop()`` saw it alive."""

    def __init__(self) -> None:
        self.release = threading.Event()
        super().__init__(target=self.release.wait, daemon=True)

    def join(self, timeout: float | None = None) -> None:
        self.release.set()
        super().join(timeout)


def test_stop_after_the_loop_closed_does_not_raise(tmp_path):
    # The race graceful shutdown can hit: ``_run`` closes the loop right
    # after the drain, while ``stop()`` still sees the thread alive.
    service = ServiceThread(tmp_path / "root")
    service._loop = asyncio.new_event_loop()
    service._loop.close()
    service._thread = _ParkedThread()
    service._thread.start()
    service.stop()
    assert not service._thread.is_alive()


def test_graceful_shutdown_then_restart_converges(tmp_path):
    root = tmp_path / "root"
    reference = _single_host_bytes(tmp_path, SLOW_DOC)

    thread = ServiceThread(root, executor="subprocess").start()
    url = f"http://127.0.0.1:{thread.port}"
    job = submit_job(url, {"spec": SLOW_DOC, "n_shards": 2})
    observed = _wait_status(url, job, {"running", "done"})
    # Drain while the job is (almost certainly) mid-flight: journals
    # `interrupted`, kills the shard worker subprocesses, exits cleanly.
    thread.shutdown()

    restarted = ServiceThread(root, executor="subprocess").start()
    url = f"http://127.0.0.1:{restarted.port}"
    try:
        recovered = get_json(url, "/status")["recovered"]
        if observed == "running":
            assert recovered == {"restored": 0, "requeued": 1, "failed": 0}
        status = wait_for_job(url, job, timeout_s=240)
        assert status["status"] == "done"
        assert fetch_results(url, job).encode() == reference
    finally:
        restarted.stop()


def test_crash_stop_recovers_running_job_as_interrupted(tmp_path):
    root = tmp_path / "root"
    reference = _single_host_bytes(tmp_path, SLOW_DOC)

    thread = ServiceThread(root, executor="subprocess").start()
    url = f"http://127.0.0.1:{thread.port}"
    job = submit_job(url, {"spec": SLOW_DOC, "n_shards": 2})
    observed = _wait_status(url, job, {"running", "done"})
    # Simulated crash: tasks cancelled, nothing journaled — replay must
    # read the dangling `running` event as an interruption.
    thread.stop()

    restarted = ServiceThread(root, executor="subprocess").start()
    url = f"http://127.0.0.1:{restarted.port}"
    try:
        recovered = get_json(url, "/status")["recovered"]
        if observed == "running":
            assert recovered["requeued"] == 1
        status = wait_for_job(url, job, timeout_s=240)
        assert status["status"] == "done"
        assert fetch_results(url, job).encode() == reference
    finally:
        restarted.stop()


# ---------------------------------------------------------- replay fences ----


def _retired_builder(seed: int, duration_s: float) -> dict[str, float]:
    return {"x": float(seed)}


def _journal_unfinished_job(root: Path, job_id: str, doc: dict, **overrides) -> None:
    """Journal an admitted-but-unfinished job exactly as ``submit`` does."""
    from repro.campaign.spec import spec_hash
    from repro.fleet import JobJournal
    from repro.fleet import journal as jl
    from repro.runtime import code_version_token

    fields = {
        "spec": doc,
        "spec_hash": spec_hash(spec_from_dict(doc)),
        "code_version": code_version_token(),
        "priority": 0,
        "n_shards": 1,
        "jobs": 1,
        "quick": False,
    }
    fields.update(overrides)
    journal = JobJournal(root)
    journal.append(job_id, jl.SUBMITTED, **fields)
    journal.append(job_id, jl.QUEUED)


def _recover_with_one_fenced_job(root: Path, fenced: str, error: str) -> None:
    from repro.fleet import FleetService

    service = FleetService(root)
    assert service.recover() == {"restored": 0, "requeued": 1, "failed": 1}
    assert service._jobs[fenced].record.status == "failed"
    assert error in service._jobs[fenced].record.error
    assert service._jobs["0002-rst_quick"].record.status == "queued"
    assert service._waiting == ["0002-rst_quick"]
    # A second recovery on the same root replays the fenced job as a
    # terminal record and requeues the sibling again.
    again = FleetService(root)
    assert again.recover() == {"restored": 1, "requeued": 1, "failed": 0}
    assert again._jobs[fenced].record.status == "failed"
    assert again._waiting == ["0002-rst_quick"]


def test_recover_fails_a_job_whose_builder_is_no_longer_registered(tmp_path):
    from repro.campaign.builders import BUILDERS, register

    root = tmp_path / "root"
    retired = {
        "campaign": {"name": "retired", "builder": "retired_builder",
                     "seeds": [1], "duration_s": 0.1},
    }
    register("retired_builder")(_retired_builder)
    try:
        _journal_unfinished_job(root, "0001-retired", retired)
    finally:
        del BUILDERS["retired_builder"]
    _journal_unfinished_job(root, "0002-rst_quick", QUICK_DOC)
    _recover_with_one_fenced_job(
        root, "0001-retired", "journaled spec no longer validates"
    )


def test_recover_fails_a_job_admitted_under_another_code_version(tmp_path):
    root = tmp_path / "root"
    _journal_unfinished_job(
        root, "0001-rst_quick", QUICK_DOC, code_version="older-simulator"
    )
    _journal_unfinished_job(root, "0002-rst_quick", QUICK_DOC)
    _recover_with_one_fenced_job(
        root, "0001-rst_quick", "different simulator code version"
    )


# --------------------------------------------------------------- SIGKILL ----


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(root: Path, port: int) -> subprocess.Popen:
    repo = Path(__file__).resolve().parent.parent
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "serve",
            "--root", str(root), "--port", str(port),
            "--executor", "local", "--max-running", "2",
        ],
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_healthy(url: str, proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        if proc.poll() is not None:
            raise AssertionError(f"fleet serve exited early with {proc.returncode}")
        try:
            assert get_json(url, "/healthz", retry=None) == {"ok": True}
            return
        except FleetClientError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


@pytest.mark.slow
def test_sigkill_midflight_every_accepted_job_completes_exactly_once(tmp_path):
    """The ISSUE's load test: N concurrent submitters, one SIGKILL, restart.

    Four submitter threads race mixed-priority submissions in, the service
    is SIGKILLed as soon as the first job reports done (the rest are
    running or queued), and a restarted service on the same root and port
    must finish every accepted job with single-host-identical bytes.
    """
    root = tmp_path / "root"
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    references = {
        doc["campaign"]["name"]: _single_host_bytes(tmp_path, doc)
        for doc in (QUICK_DOC, SLOW_DOC)
    }

    proc = _serve(root, port)
    try:
        _wait_healthy(url, proc)

        accepted: list[str] = []
        lock = threading.Lock()
        errors: list[Exception] = []

        def submitter(doc: dict, priority: int) -> None:
            try:
                # DEFAULT_RETRY rides out 429s; refused connections retry too.
                job = submit_job(
                    url, {"spec": doc, "n_shards": 2, "priority": priority}
                )
                with lock:
                    accepted.append(job)
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        workload = [
            (QUICK_DOC, 10),  # high priority: finishes first, arms the kill
            (SLOW_DOC, 0),
            (SLOW_DOC, -5),
            (QUICK_DOC, 0),
        ]
        threads = [
            threading.Thread(target=submitter, args=spec) for spec in workload
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"submitters failed: {errors}"
        assert len(accepted) == len(workload)
        assert len(set(accepted)) == len(accepted)

        deadline = time.monotonic() + 120
        while True:
            doc = get_json(url, "/status")
            if doc["jobs"].get("done", 0) >= 1:
                break
            assert time.monotonic() < deadline, f"no job finished: {doc}"
            time.sleep(0.05)

        # Mid-flight SIGKILL: in-process (local executor) shard work dies
        # with the service — the closest thing to pulling the power cord.
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    proc = _serve(root, port)
    try:
        _wait_healthy(url, proc)
        for job in accepted:
            status = wait_for_job(url, job, timeout_s=300)
            assert status["status"] == "done", (job, status)

        # Exactly once: the restarted index holds exactly the accepted jobs.
        index = get_json(url, "/jobs")
        assert index["total"] == len(accepted)
        assert {entry["job"] for entry in index["jobs"]} == set(accepted)

        # Byte-identical to an uninterrupted single-host run, per spec.
        for job in accepted:
            name = job.split("-", 1)[1]
            assert fetch_results(url, job).encode() == references[name], job

        # Satellite: SIGTERM drains gracefully and exits 0.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
