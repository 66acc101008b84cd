"""Stdlib-only HTTP service wrapping the fleet orchestrator.

``repro fleet serve`` exposes submit / status / results over plain HTTP so a
campaign can be driven from anywhere that can POST JSON — no framework, no
new dependency: the server is a minimal HTTP/1.1 parser on top of
``asyncio.start_server``, sharing one event loop with every running fleet
orchestration (shard executors block worker threads, never the loop).

API (all JSON unless noted):

- ``GET    /healthz``                 -> ``{"ok": true}``
- ``GET    /status``                  -> service document: queue depth,
  running/queued/terminal job counts, journal sequence + lag, draining flag
- ``GET    /queue``                   -> admission queue: waiting entries in
  dispatch order, running job ids, capacity limits
- ``GET    /jobs?limit=N&offset=M``   -> paginated job index
  (``{"jobs": [...], "total": T, "offset": M, "limit": N}``)
- ``POST   /jobs``                    -> 202 ``{"job": "<id>"}``; body is
  ``{"spec": {<TOML document shape>}, "n_shards": 2, "quick": false,
  "jobs": 1, "priority": 0}``; 429 + ``Retry-After`` when the admission
  queue is full, 503 while the service is draining for shutdown
- ``GET    /jobs/<id>``               -> job + per-shard fleet status
- ``DELETE /jobs/<id>``               -> cancel a queued or running job;
  409 if the job already reached a terminal state
- ``GET    /jobs/<id>/results.csv``   -> merged results (text/csv); 409
  until the merge has happened
- ``GET    /jobs/<id>/telemetry``     -> merged telemetry snapshot; 404 if
  the run captured none

Durability (DESIGN.md §13, "Durability & queueing"): every job state
transition is journaled to ``<root>/journal/`` *before* the in-memory
state changes (:mod:`repro.fleet.journal`).  On startup the service
replays the journal, re-fences each unfinished job against its recorded
spec-hash and code-version (the same rules ``fleet/run.py`` applies to a
reused out dir), marks jobs the crash caught mid-flight ``interrupted``,
and re-enqueues them — the shard workers resume from their own manifests,
so a killed-and-restarted service converges to byte-identical
``results.csv`` and metrics fingerprints.

Admission is a bounded queue: at most ``max_running`` fleet orchestrations
run concurrently, at most ``max_queue`` jobs wait behind them (submit
order within a priority level, higher ``priority`` first), and a full
queue answers 429 with ``Retry-After`` instead of accepting work it would
only lose.  Jobs re-admitted by crash recovery bypass the bound — they
were already accepted once.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from pathlib import Path
from typing import Any

from repro.campaign.manifest import manifest_path
from repro.campaign.spec import CampaignSpec, SpecError, spec_from_dict, spec_hash
from repro.fleet import journal as jl
from repro.fleet.journal import JobJournal, JobRecord
from repro.fleet.plan import FleetError
from repro.fleet.run import FleetState, fleet_state_path, fleet_status_document, run_fleet_async
from repro.runtime import code_version_token

_MAX_BODY = 4 * 1024 * 1024  # a spec document is tiny; refuse anything huge

#: Journal status -> the status string the HTTP API reports.  ``merged`` is
#: the journal's name for the happy terminal state; the API has always said
#: ``done`` and keeps saying it.
_PUBLIC_STATUS = {jl.MERGED: "done"}

class _HttpError(Exception):
    def __init__(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Job:
    """One accepted job: its journal record plus the live asyncio task."""

    def __init__(self, record: JobRecord, out_dir: Path, spec: CampaignSpec | None) -> None:
        self.record = record
        self.out_dir = out_dir
        self.spec = spec
        self.task: asyncio.Task | None = None

    @property
    def id(self) -> str:
        return self.record.job

    @property
    def status(self) -> str:
        return _PUBLIC_STATUS.get(self.record.status, self.record.status)


class FleetService:
    """Asyncio fleet service: journaled job queue, orchestration, results."""

    def __init__(
        self,
        root: str | Path,
        executor: str = "local",
        jobs: int = 1,
        max_parallel_shards: int | None = None,
        max_shard_attempts: int = 3,
        max_running: int = 2,
        max_queue: int = 16,
        max_body: int = _MAX_BODY,
        compact_every: int = 256,
    ) -> None:
        if max_running < 1:
            raise ValueError(f"max_running must be >= 1, got {max_running}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.root = Path(root)
        self.executor = executor
        self.jobs = jobs
        self.max_parallel_shards = max_parallel_shards
        self.max_shard_attempts = max_shard_attempts
        self.max_running = max_running
        self.max_queue = max_queue
        self.max_body = max_body
        self.journal = JobJournal(self.root, compact_every=compact_every)
        self._jobs: dict[str, _Job] = {}  # insertion order = submit order
        self._waiting: list[str] = []  # admitted, not yet dispatched
        self._running: set[str] = set()
        self._draining = False
        self._seq = 0
        self._recovered: dict[str, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # ------------------------------------------------------------ job API ---

    def submit(self, document: Any) -> str:
        """Validate a submit body, journal it, and enqueue; returns the id."""
        if self._draining:
            raise _HttpError(
                503, "service is shutting down and refuses new submissions"
            )
        if not isinstance(document, dict):
            raise _HttpError(400, "request body must be a JSON object")
        spec_doc = document.get("spec")
        if not isinstance(spec_doc, dict):
            raise _HttpError(400, 'body must carry the spec document under "spec"')
        n_shards = document.get("n_shards", 2)
        if not isinstance(n_shards, int) or isinstance(n_shards, bool) or n_shards < 1:
            raise _HttpError(400, f"n_shards must be a positive integer, got {n_shards!r}")
        quick = document.get("quick", False)
        if not isinstance(quick, bool):
            raise _HttpError(400, f"quick must be a boolean, got {quick!r}")
        shard_jobs = document.get("jobs", self.jobs)
        if not isinstance(shard_jobs, int) or isinstance(shard_jobs, bool) or shard_jobs < 1:
            raise _HttpError(400, f"jobs must be a positive integer, got {shard_jobs!r}")
        priority = document.get("priority", 0)
        if (
            not isinstance(priority, int)
            or isinstance(priority, bool)
            or not -1000 <= priority <= 1000
        ):
            raise _HttpError(
                400, f"priority must be an integer in [-1000, 1000], got {priority!r}"
            )
        try:
            spec = spec_from_dict(spec_doc, source="<http>", quick=quick)
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from None
        # The bound applies to the *waiting* line: a submit that can start
        # immediately (a running slot is free) is always admissible, even
        # with max_queue=0.
        if (
            len(self._running) >= self.max_running
            and len(self._waiting) >= self.max_queue
        ):
            raise _HttpError(
                429,
                f"admission queue is full ({len(self._waiting)}/{self.max_queue} "
                f"waiting, {len(self._running)}/{self.max_running} running); "
                "retry later",
                headers={"Retry-After": "1"},
            )

        self._seq += 1
        job_id = f"{self._seq:04d}-{spec.name}"
        record = JobRecord(job=job_id)
        # Journal first, mutate after: the fsync'd append is the commit point
        # of admission — a crash right after the 202 still knows this job.
        seq = self.journal.append(
            job_id,
            jl.SUBMITTED,
            spec=dict(spec_doc),
            spec_hash=spec_hash(spec),
            code_version=code_version_token(),
            priority=priority,
            n_shards=n_shards,
            jobs=shard_jobs,
            quick=quick,
        )
        record.apply(
            jl.SUBMITTED,
            seq,
            {
                "spec": dict(spec_doc),
                "spec_hash": spec_hash(spec),
                "code_version": code_version_token(),
                "priority": priority,
                "n_shards": n_shards,
                "jobs": shard_jobs,
                "quick": quick,
            },
        )
        job = _Job(record, self.root / "jobs" / job_id, spec)
        self._jobs[job_id] = job
        self._transition(job, jl.QUEUED)
        self._waiting.append(job_id)
        self._pump()
        return job_id

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job (``DELETE /jobs/<id>``)."""
        job = self._job(job_id)
        status = job.record.status
        if status == jl.QUEUED:
            self._waiting.remove(job_id)
            self._transition(job, jl.CANCELLED)
        elif status == jl.RUNNING:
            # Journal before cancelling: the orchestrator task observes
            # CancelledError and must find the terminal state already logged.
            self._transition(job, jl.CANCELLED, shard_attempts=self._shard_attempts(job))
            if job.task is not None:
                job.task.cancel()
        else:
            raise _HttpError(
                409, f"job {job_id} is {job.status} and can no longer be cancelled"
            )
        self.journal.maybe_compact(self._records())
        return {"job": job_id, "status": job.status}

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        return job

    def _records(self) -> dict[str, JobRecord]:
        return {job_id: job.record for job_id, job in self._jobs.items()}

    def _transition(self, job: _Job, event: str, **data: Any) -> None:
        """Journal an event, then apply it to the in-memory record."""
        seq = self.journal.append(job.id, event, **data)
        job.record.apply(event, seq, data)

    def _shard_attempts(self, job: _Job) -> dict[str, int]:
        """Per-shard dispatch attempt counts from the job's fleet state."""
        try:
            state = FleetState.load(fleet_state_path(job.out_dir))
        except FleetError:
            return {}
        return {str(entry.shard): entry.attempts for entry in state.shards}

    # ------------------------------------------------------------ dispatch --

    def _pump(self) -> None:
        """Start queued jobs while concurrency slots are free (loop thread)."""
        if self._draining:
            return
        while self._waiting and len(self._running) < self.max_running:
            # Highest priority first; FIFO by admission order within a level.
            job_id = min(
                self._waiting,
                key=lambda jid: (
                    -self._jobs[jid].record.priority,
                    self._jobs[jid].record.submitted_seq,
                ),
            )
            self._waiting.remove(job_id)
            self._start(self._jobs[job_id])

    def _start(self, job: _Job) -> None:
        self._running.add(job.id)
        self._transition(job, jl.RUNNING)
        job.task = asyncio.get_running_loop().create_task(self._run(job))

    async def _run(self, job: _Job) -> None:
        try:
            assert job.spec is not None  # re-fenced before every enqueue
            run = await run_fleet_async(
                job.spec,
                job.out_dir,
                n_shards=job.record.n_shards,
                executor=self.executor,
                jobs=job.record.jobs,
                max_shard_attempts=self.max_shard_attempts,
                max_parallel=self.max_parallel_shards,
            )
            attempts = self._shard_attempts(job)
            if run.ok:
                self._transition(job, jl.MERGED, shard_attempts=attempts)
            else:
                self._transition(
                    job, jl.FAILED, error=run.error or "fleet run failed",
                    shard_attempts=attempts,
                )
        except asyncio.CancelledError:
            # cancel()/shutdown() journaled the terminal/interrupted state
            # before cancelling; a hard crash (loop torn down) journals
            # nothing, which replay reads as "running" -> interrupted.
            raise
        except (FleetError, Exception) as exc:  # noqa: BLE001 - job boundary
            self._transition(
                job, jl.FAILED, error=f"{type(exc).__name__}: {exc}",
                shard_attempts=self._shard_attempts(job),
            )
        finally:
            self._running.discard(job.id)
            self.journal.maybe_compact(self._records())
            self._pump()

    # ------------------------------------------------------------ recovery --

    def recover(self) -> dict[str, int]:
        """Replay the journal; re-fence and re-enqueue unfinished jobs.

        Called by :meth:`start` on the loop thread before the first request
        is served.  Returns counters for the operator banner
        (``restored`` terminal jobs, ``requeued``, ``failed`` fence checks).
        """
        counters = {"restored": 0, "requeued": 0, "failed": 0}
        records = self.journal.replay()
        for record in sorted(records.values(), key=lambda r: r.submitted_seq):
            prefix = record.job.split("-", 1)[0]
            if prefix.isdigit():
                self._seq = max(self._seq, int(prefix))
            job = _Job(record, self.root / "jobs" / record.job, spec=None)
            self._jobs[record.job] = job
            if record.terminal:
                counters["restored"] += 1
                continue
            if record.status in (jl.RUNNING, jl.SUBMITTED):
                # The crash caught this job mid-flight (or mid-admission).
                self._transition(
                    job, jl.INTERRUPTED, shard_attempts=self._shard_attempts(job)
                )
            error = self._refence(job)
            if error is not None:
                self._transition(job, jl.FAILED, error=error)
                counters["failed"] += 1
                continue
            self._transition(job, jl.QUEUED, requeued=True)
            self._waiting.append(record.job)
            counters["requeued"] += 1
        # Recovery rewrote the interesting tail of history; snapshot it so a
        # crash loop cannot grow the journal without bound.
        self.journal.compact(self._records())
        self._recovered = counters
        return counters

    def _refence(self, job: _Job) -> str | None:
        """Re-check a recovered job against its recorded fences.

        Mirrors the ``fleet/run.py`` out-dir fences: the journaled spec must
        still resolve to the journaled spec-hash, and the simulator code
        must be the version that produced any existing shard artifacts.
        Returns an error message, or None (and sets ``job.spec``) if the job
        is safe to re-dispatch through the resumable shard path.
        """
        record = job.record
        if not isinstance(record.spec, dict):
            return "journal lost the spec document for this job"
        try:
            spec = spec_from_dict(record.spec, source="<journal>", quick=record.quick)
        except SpecError as exc:
            return f"journaled spec no longer validates: {exc}"
        digest = spec_hash(spec)
        if record.spec_hash and digest != record.spec_hash:
            return (
                f"journaled spec resolves to hash {digest}, the job was "
                f"admitted with {record.spec_hash}; artifacts are not comparable"
            )
        token = code_version_token()
        if record.code_version and token != record.code_version:
            return (
                "job was admitted under a different simulator code version "
                f"({record.code_version}, now {token}); completed shards "
                "would not be comparable — resubmit"
            )
        job.spec = spec
        return None

    # ------------------------------------------------------------- status ---

    def job_status(self, job_id: str) -> dict[str, Any]:
        job = self._job(job_id)
        doc: dict[str, Any] = {
            "job": job.id,
            "spec": job.record.spec.get("campaign", {}).get("name")
            if isinstance(job.record.spec, dict)
            else None,
            "n_shards": job.record.n_shards,
            "status": job.status,
            "error": job.record.error,
            "priority": job.record.priority,
            "shard_attempts": dict(job.record.shard_attempts),
        }
        if job.spec is not None:
            doc["spec"] = job.spec.name
        if job.record.status == jl.QUEUED:
            doc["queue_position"] = self._queue_order().index(job.id)
        try:
            doc["fleet"] = fleet_status_document(job.out_dir)
        except FleetError:
            doc["fleet"] = None  # state file not written yet
        return doc

    def _queue_order(self) -> list[str]:
        return sorted(
            self._waiting,
            key=lambda jid: (
                -self._jobs[jid].record.priority,
                self._jobs[jid].record.submitted_seq,
            ),
        )

    def jobs_index(self, limit: int = 100, offset: int = 0) -> dict[str, Any]:
        """Bounded job index: newest first, paginated with limit/offset."""
        entries = [
            {
                "job": job.id,
                "spec": job.record.spec.get("campaign", {}).get("name")
                if isinstance(job.record.spec, dict)
                else (job.spec.name if job.spec is not None else None),
                "status": job.status,
                "priority": job.record.priority,
            }
            for job in reversed(list(self._jobs.values()))
        ]
        return {
            "jobs": entries[offset : offset + limit],
            "total": len(entries),
            "offset": offset,
            "limit": limit,
        }

    def queue_document(self) -> dict[str, Any]:
        """The admission queue as operators see it (``GET /queue``)."""
        order = self._queue_order()
        return {
            "depth": len(order),
            "max_queue": self.max_queue,
            "running": sorted(self._running),
            "max_running": self.max_running,
            "entries": [
                {
                    "job": job_id,
                    "priority": self._jobs[job_id].record.priority,
                    "position": position,
                }
                for position, job_id in enumerate(order)
            ],
        }

    def status_document(self) -> dict[str, Any]:
        """Service-level health (``GET /status``): queue, jobs, journal lag."""
        by_status: dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "root": str(self.root),
            "draining": self._draining,
            "queue_depth": len(self._waiting),
            "max_queue": self.max_queue,
            "running": len(self._running),
            "max_running": self.max_running,
            "jobs": {"total": len(self._jobs), **by_status},
            "journal": {"seq": self.journal.seq, "lag": self.journal.lag},
            "recovered": dict(self._recovered),
        }

    # --------------------------------------------------------------- HTTP ---

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            headers: dict[str, str] = {}
            try:
                method, target, body = await self._read_request(reader)
                status, content_type, payload = self._route(method, target, body)
            except _HttpError as exc:
                status = exc.status
                content_type = "application/json"
                payload = json.dumps({"error": exc.message}) + "\n"
                headers = exc.headers
            except Exception as exc:  # noqa: BLE001 - never kill the server
                status = 500
                content_type = "application/json"
                payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n"
            data = payload.encode()
            extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"{extra}"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode() + data)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            # close() without wait_closed(): the response is already drained,
            # and not parking here keeps handlers from lingering (and being
            # noisily cancelled) when the service shuts down mid-keepalive.
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if content_length > self.max_body:
            raise _HttpError(413, f"body larger than {self.max_body} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target, body

    @staticmethod
    def _page_params(target: str) -> tuple[int, int]:
        query = urllib.parse.urlparse(target).query
        params = urllib.parse.parse_qs(query)
        try:
            limit = int(params.get("limit", ["100"])[0])
            offset = int(params.get("offset", ["0"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad pagination parameter: {exc}") from None
        if limit < 1 or offset < 0:
            raise _HttpError(400, "limit must be >= 1 and offset >= 0")
        return limit, offset

    def _route(self, method: str, target: str, body: bytes) -> tuple[int, str, str]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, "application/json", json.dumps({"ok": True}) + "\n"
        if path == "/status" and method == "GET":
            return (
                200,
                "application/json",
                json.dumps(self.status_document(), indent=2, sort_keys=True) + "\n",
            )
        if path == "/queue" and method == "GET":
            return (
                200,
                "application/json",
                json.dumps(self.queue_document(), indent=2, sort_keys=True) + "\n",
            )
        if path == "/jobs":
            if method == "POST":
                try:
                    document = json.loads(body.decode() or "null")
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
                job_id = self.submit(document)
                return 202, "application/json", json.dumps({"job": job_id}) + "\n"
            if method == "GET":
                limit, offset = self._page_params(target)
                return (
                    200,
                    "application/json",
                    json.dumps(self.jobs_index(limit, offset)) + "\n",
                )
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            if method == "DELETE":
                if "/" in rest:
                    raise _HttpError(404, f"no route for {method} {path}")
                return (
                    200,
                    "application/json",
                    json.dumps(self.cancel(rest)) + "\n",
                )
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            if rest.endswith("/results.csv"):
                return self._results(rest[: -len("/results.csv")])
            if rest.endswith("/telemetry"):
                return self._telemetry(rest[: -len("/telemetry")])
            return (
                200,
                "application/json",
                json.dumps(self.job_status(rest), indent=2, sort_keys=True) + "\n",
            )
        raise _HttpError(404, f"no route for {method} {path}")

    def _results(self, job_id: str) -> tuple[int, str, str]:
        job = self._job(job_id)
        csv_path = job.out_dir / "results.csv"
        if not csv_path.exists():
            if job.status == "failed":
                raise _HttpError(409, f"job {job_id} failed: {job.record.error}")
            raise _HttpError(409, f"job {job_id} has not merged yet (status {job.status})")
        return 200, "text/csv", csv_path.read_text()

    def _telemetry(self, job_id: str) -> tuple[int, str, str]:
        from repro.fleet.merge import collect_fleet_telemetry

        job = self._job(job_id)
        if not manifest_path(job.out_dir).exists():
            raise _HttpError(409, f"job {job_id} has not merged yet (status {job.status})")
        snapshot = collect_fleet_telemetry(job.out_dir)
        if snapshot is None:
            raise _HttpError(404, f"job {job_id} captured no telemetry")
        return 200, "application/json", snapshot.to_json(indent=2) + "\n"

    # -------------------------------------------------------------- server --

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Replay the journal, then bind; ``self.port`` is set once bound.

        Recovery runs *before* the socket accepts its first request, so a
        client polling a job it submitted to the previous incarnation never
        sees a 404 — the job is back (queued or terminal) by the time the
        port answers.
        """
        self.recover()
        self._pump()
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Tear the listener down (tests); running job tasks are cancelled
        without journaling — indistinguishable from a crash, which is what
        the restart tests simulate."""
        self._draining = True  # keep _pump from starting jobs mid-teardown
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def shutdown(self, timeout_s: float = 30.0) -> None:
        """Graceful SIGTERM/SIGINT path: drain, journal, cancel, stop.

        New submissions are refused (503) immediately; every running job is
        journaled ``interrupted`` before its orchestrator task is cancelled
        (the subprocess executor kills its shard workers, whose atomic
        manifests make the interruption resumable); queued jobs stay
        ``queued`` in the journal and are re-admitted on the next start.
        """
        self._draining = True
        running = [
            job for job in self._jobs.values()
            if job.id in self._running and job.task is not None
        ]
        for job in running:
            self._transition(
                job, jl.INTERRUPTED, shard_attempts=self._shard_attempts(job)
            )
            assert job.task is not None
            job.task.cancel()
        if running:
            await asyncio.wait(
                [job.task for job in running if job.task is not None],
                timeout=timeout_s,
            )
        self.journal.compact(self._records())
        await self.stop()


class ServiceThread:
    """A FleetService on its own event loop in a daemon thread (tests, CI).

    Usage::

        with ServiceThread(root) as svc:
            url = f"http://127.0.0.1:{svc.port}"

    ``stop()`` cancels everything without journaling — a simulated crash.
    ``shutdown()`` runs the graceful drain first, like SIGTERM would.
    """

    def __init__(self, root: str | Path, **options: Any) -> None:
        self.service = FleetService(root, **options)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def _run(self) -> None:
        async def main() -> None:
            await self.service.start()
            self._ready.set()
            try:
                await self.service.serve_forever()
            except asyncio.CancelledError:
                pass
            await self.service.stop()
            # Let cancelled job tasks finish unwinding (they kill their
            # shard subprocesses on the way out) before the loop closes.
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if pending:
                await asyncio.wait(pending, timeout=10)

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("fleet service failed to start within 10s")
        return self

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Run the graceful drain on the service loop, then join the thread."""
        loop = self._loop
        if loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(timeout_s=timeout_s), loop
        )
        future.result(timeout=timeout_s + 10)
        self.stop()

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not self._thread.is_alive():
            return

        def _cancel_all() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        try:
            loop.call_soon_threadsafe(_cancel_all)
        except RuntimeError:
            # The loop closed after the liveness check (``_run`` closes it
            # right after a graceful drain): the thread is already stopping.
            pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()
