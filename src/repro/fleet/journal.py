"""Crash-safe job journal for the fleet service.

The service's job table used to live only in process memory: a crashed
``repro fleet serve`` forgot every job it had accepted, even though the
artifacts on disk were intact.  This module is the write-ahead log that
fixes that — every job state transition is appended to
``<root>/journal/journal.jsonl`` *before* the in-memory state changes, so
a SIGKILLed service can replay the journal on restart and pick up exactly
where it died.

Format — one JSON object per line::

    {"v": 1, "seq": 17, "job": "0003-fig1_nav_udp", "event": "running",
     "data": {...}, "sha256": "<hex>"}

- ``seq`` is a strictly increasing sequence number across the whole
  journal (it survives compaction), so replays are totally ordered and a
  snapshot knows exactly which tail of the journal it supersedes.
- ``sha256`` checksums the rest of the record.  Lines are written, read
  and repaired by the helpers in :mod:`repro.runtime.io` that the campaign
  manifest log shares: a torn final line (the only tear an fsync'd append
  can produce) is dropped, and :meth:`JobJournal.replay` cuts it off before
  the service appends again.  Nothing after the first bad line is trusted:
  an append-only file corrupted mid-stream means the storage lied.

Compaction: once ``compact_every`` lines accumulate, the current job
table is written to ``snapshot.json`` with the atomic fsync'd writer
(previous snapshot rotated to ``.bak``), and the journal file is
atomically replaced with an empty one.  Replay = snapshot + journal lines
with ``seq`` greater than the snapshot's ``last_seq``; a crash *between*
snapshot and truncate merely replays a few already-applied lines, which
is idempotent because events carry absolute states, not deltas.

Job lifecycle recorded here (DESIGN.md §13)::

    submitted -> queued -> running -> merged | failed
                      \\-> cancelled          (DELETE /jobs/<id>)
    running   -> interrupted -> queued        (crash/shutdown, then replay)
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runtime.io import (
    atomic_write_text,
    checksummed_line,
    durable_append_line,
    read_checksummed_lines,
    truncate_torn_tail,
)

JOURNAL_VERSION = 1

#: Job lifecycle events, in the order a healthy job passes through them.
SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
MERGED = "merged"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: Events after which a job never changes again.
TERMINAL_EVENTS = frozenset({MERGED, FAILED, CANCELLED})

_SNAPSHOT_BACKUP = ".bak"


class JournalError(ValueError):
    """The journal directory holds something this code cannot read."""


@dataclass
class JobRecord:
    """Everything the journal knows about one job (the replayed state)."""

    job: str
    spec: dict[str, Any] | None = None
    spec_hash: str = ""
    code_version: str = ""
    priority: int = 0
    n_shards: int = 2
    jobs: int = 1
    quick: bool = False
    status: str = SUBMITTED
    error: str | None = None
    #: Sequence number of the ``submitted`` event — admission (FIFO) order.
    submitted_seq: int = 0
    #: Sequence number of the most recently applied event.
    seq: int = 0
    #: Per-shard dispatch attempt counts captured at the last transition
    #: that knew them (terminal and interrupted events).
    shard_attempts: dict[str, int] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_EVENTS

    def apply(self, event: str, seq: int, data: dict[str, Any]) -> None:
        """Fold one journal event into this record (idempotent per seq)."""
        if seq <= self.seq:
            return  # a compaction race replayed an already-applied line
        self.seq = seq
        if event == SUBMITTED:
            self.submitted_seq = seq
            self.spec = data.get("spec")
            self.spec_hash = data.get("spec_hash", "")
            self.code_version = data.get("code_version", "")
            self.priority = int(data.get("priority", 0))
            self.n_shards = int(data.get("n_shards", 2))
            self.jobs = int(data.get("jobs", 1))
            self.quick = bool(data.get("quick", False))
            self.status = SUBMITTED
        elif event in (QUEUED, RUNNING, MERGED, CANCELLED, INTERRUPTED, FAILED):
            self.status = event
            if event == FAILED:
                self.error = str(data.get("error", "unknown failure"))
            if "shard_attempts" in data:
                self.shard_attempts = {
                    str(key): int(value)
                    for key, value in data["shard_attempts"].items()
                }
        # Unknown events are ignored (forward compatibility: an old service
        # replaying a newer journal keeps every transition it understands).

    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "code_version": self.code_version,
            "priority": self.priority,
            "n_shards": self.n_shards,
            "jobs": self.jobs,
            "quick": self.quick,
            "status": self.status,
            "error": self.error,
            "submitted_seq": self.submitted_seq,
            "seq": self.seq,
            "shard_attempts": dict(self.shard_attempts),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "JobRecord":
        try:
            return JobRecord(
                job=data["job"],
                spec=data.get("spec"),
                spec_hash=data.get("spec_hash", ""),
                code_version=data.get("code_version", ""),
                priority=int(data.get("priority", 0)),
                n_shards=int(data.get("n_shards", 2)),
                jobs=int(data.get("jobs", 1)),
                quick=bool(data.get("quick", False)),
                status=data.get("status", SUBMITTED),
                error=data.get("error"),
                submitted_seq=int(data.get("submitted_seq", 0)),
                seq=int(data.get("seq", 0)),
                shard_attempts={
                    str(key): int(value)
                    for key, value in data.get("shard_attempts", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed snapshot job record: {exc}") from None


class JobJournal:
    """Append-only fsync'd job journal with atomic snapshot compaction."""

    def __init__(self, root: str | Path, *, compact_every: int = 256) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.dir = Path(root) / "journal"
        self.path = self.dir / "journal.jsonl"
        self.snapshot_path = self.dir / "snapshot.json"
        self.compact_every = compact_every
        self._seq = 0
        self._lines_since_snapshot = 0

    # ------------------------------------------------------------- writes --

    def append(self, job_id: str, event: str, **data: Any) -> int:
        """Durably append one state transition; returns its sequence number.

        The fsync completes before this returns, so a caller that mutates
        in-memory state *after* appending can never be ahead of the log.
        """
        self._seq += 1
        record: dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "seq": self._seq,
            "job": job_id,
            "event": event,
        }
        if data:
            record["data"] = data
        durable_append_line(self.path, checksummed_line(record))
        self._lines_since_snapshot += 1
        return self._seq

    def compact(self, jobs: dict[str, JobRecord]) -> None:
        """Write an atomic snapshot of ``jobs`` and truncate the journal.

        Crash-safe at every instant: the snapshot lands via the fsync'd
        atomic writer (old snapshot rotated to ``.bak``) *before* the
        journal is emptied, and a crash between the two steps only causes
        a few idempotent re-applies on the next replay.
        """
        snapshot = {
            "v": JOURNAL_VERSION,
            "last_seq": self._seq,
            "jobs": {job_id: record.to_dict() for job_id, record in jobs.items()},
        }
        atomic_write_text(
            self.snapshot_path,
            json.dumps(snapshot, indent=2, sort_keys=True),
            backup_suffix=_SNAPSHOT_BACKUP,
        )
        atomic_write_text(self.path, "")
        self._lines_since_snapshot = 0

    def maybe_compact(self, jobs: dict[str, JobRecord]) -> bool:
        """Compact when the journal has grown past ``compact_every`` lines."""
        if self._lines_since_snapshot >= self.compact_every:
            self.compact(jobs)
            return True
        return False

    # -------------------------------------------------------------- reads --

    @property
    def seq(self) -> int:
        """Sequence number of the most recent append (0 = empty journal)."""
        return self._seq

    @property
    def lag(self) -> int:
        """Journal lines accumulated since the last snapshot (operator metric:
        how much replay work a restart right now would have to do)."""
        return self._lines_since_snapshot

    def _load_snapshot(self) -> tuple[int, dict[str, JobRecord]]:
        for candidate in (
            self.snapshot_path,
            Path(str(self.snapshot_path) + _SNAPSHOT_BACKUP),
        ):
            try:
                data = json.loads(candidate.read_text())
            except FileNotFoundError:
                continue
            except (OSError, json.JSONDecodeError) as exc:
                warnings.warn(
                    f"fleet journal snapshot {candidate} unreadable ({exc}); "
                    "trying the previous snapshot",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            try:
                if data["v"] != JOURNAL_VERSION:
                    raise JournalError(
                        f"journal snapshot {candidate} has version {data['v']}, "
                        f"this code reads version {JOURNAL_VERSION}"
                    )
                jobs = {
                    job_id: JobRecord.from_dict(record)
                    for job_id, record in data["jobs"].items()
                }
                return int(data["last_seq"]), jobs
            except (KeyError, TypeError) as exc:
                raise JournalError(f"malformed journal snapshot {candidate}: {exc}") from None
        return 0, {}

    def replay(self) -> dict[str, JobRecord]:
        """Rebuild the job table: snapshot + every valid journal line after it.

        A torn tail (a killed append) is cut off first, so the appends after
        a restart start on a fresh line.  Replay stops at the first bad line
        (:func:`repro.runtime.io.read_checksummed_lines`).
        """
        last_seq, jobs = self._load_snapshot()
        self._seq = max(self._seq, last_seq)
        self._lines_since_snapshot = 0
        try:
            truncate_torn_tail(self.path)
            records = read_checksummed_lines(self.path, "fleet journal")
        except FileNotFoundError:
            records = []
        except OSError as exc:
            raise JournalError(f"unreadable journal {self.path}: {exc}") from None
        for record in records:
            seq = int(record.get("seq", 0))
            job_id = str(record.get("job", ""))
            event = str(record.get("event", ""))
            data = record.get("data") or {}
            if seq <= last_seq:
                continue  # snapshot already covers this line
            job = jobs.get(job_id)
            if job is None:
                job = jobs[job_id] = JobRecord(job=job_id)
            job.apply(event, seq, data)
            self._seq = max(self._seq, seq)
            self._lines_since_snapshot += 1
        return jobs
