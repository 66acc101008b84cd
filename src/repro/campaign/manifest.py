"""Campaign manifest: the on-disk record of what ran, enabling ``--resume``.

The manifest is an append-only log in the campaign's output directory
(:func:`manifest_path`).  Line 1 is the whole document, written by
:meth:`Manifest.save` in one atomic rename, so a fresh run replaces an old
log whole.  Each point transition (``running``, ``done``, ``failed``) then
appends that point's absolute :class:`PointState` as one line, and the end
of a run appends one ``faults`` line.  A ``done`` line carries the point's
results (``PointState.result``), so it is the point's one durable record.
:meth:`Manifest.load` folds the lines in order; the last line for a point
wins.  A resumed run checks that the spec hash and code-version token
still match (a changed spec or changed simulator code makes old numbers
non-comparable), and skips every point already done.

Crash consistency is the fleet journal's (:mod:`repro.runtime.io`): every
line carries its own sha256 and is appended with an fsync, so a SIGKILL
can only tear the final line.  Readers drop it, so the log reads as the
state before that transition and at most the point in flight re-runs —
safe, because point execution is deterministic and idempotent.  Readers
never write; the resuming owner cuts the torn tail off before appending.

Fault accounting: ``PointState`` records the retry budget spent on each
point (``retries``) and the most recent failure message (``last_failure``),
persisted so ``repro campaign status`` can surface flaky points even after
the run eventually succeeded.  Both fields default, so manifests written
before the fault-tolerance layer still load.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runtime.io import (
    atomic_write_text,
    checksummed_line,
    durable_append_line,
    read_checksummed_lines,
)

MANIFEST_VERSION = 1

PENDING = "pending"
#: The runner has dispatched this point's seeds and not yet recorded an
#: outcome.  On disk this is a *liveness* signal: a resumed run treats it
#: exactly like pending (the interrupted attempt is re-run), but a status
#: poll can now distinguish "in flight right now" from "still queued".
RUNNING = "running"
DONE = "done"
FAILED = "failed"


def manifest_path(out_dir: str | Path) -> Path:
    """The manifest log of the campaign output directory ``out_dir``."""
    return Path(out_dir) / "manifest.jsonl"


class ManifestError(ValueError):
    """A manifest could not be read or does not match the requested run."""


@dataclass
class PointState:
    """Status of one grid point."""

    id: str
    index: int
    params: dict[str, Any]
    status: str = PENDING
    seeds_done: list[int] = field(default_factory=list)
    error: str | None = None
    #: Retry budget spent on this point across all attempts (seed re-runs
    #: after worker deaths, timeouts or transient errors).
    retries: int = 0
    #: Most recent failure message observed for this point, kept even after
    #: a later attempt succeeded (flakiness is worth surfacing).
    last_failure: str | None = None
    #: A done point's results: ``per_seed`` metrics (keyed by the seed as a
    #: string), their ``median`` and the representative run's ``telemetry``
    #: snapshot (None unless the run captured telemetry).
    result: dict[str, Any] | None = None


def add_faults(total: dict[str, Any], more: dict[str, Any]) -> dict[str, Any]:
    """Fault counters of two runs as one: ints sum, bools OR, others replace.

    A resumed run adds its pool counters to the interrupted run's, and a
    fleet merge adds up its shards', by this one rule.
    """
    summed = dict(total)
    for key, value in more.items():
        if isinstance(value, bool):
            summed[key] = bool(summed.get(key, False)) or value
        elif isinstance(value, (int, float)):
            summed[key] = summed.get(key, 0) + value
        else:
            summed[key] = value
    return summed


@dataclass
class Manifest:
    """Everything needed to resume, audit or report a campaign run."""

    name: str
    builder: str
    spec_hash: str
    code_version: str
    seeds: list[int]
    duration_s: float
    points: list[PointState]
    version: int = MANIFEST_VERSION
    #: Whether per-point telemetry snapshots were captured into the results.
    telemetry: bool = False
    #: Aggregate fault counters for the whole campaign (pool rebuilds,
    #: watchdog kills, serial degradation); purely informational.
    faults: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------ queries --

    @property
    def total(self) -> int:
        return len(self.points)

    def count(self, status: str) -> int:
        return sum(1 for point in self.points if point.status == status)

    @property
    def complete(self) -> bool:
        """True when every point completed successfully."""
        return self.count(DONE) == self.total

    def status_document(self) -> dict[str, Any]:
        """Machine-readable status summary (``repro campaign status --json``).

        One stable JSON-friendly shape consumed by both humans piping to
        ``jq`` and by the fleet orchestrator polling shard progress; keep it
        backward compatible (add keys, never repurpose them).
        """
        return {
            "name": self.name,
            "builder": self.builder,
            "spec_hash": self.spec_hash,
            "code_version": self.code_version,
            "seeds": list(self.seeds),
            "duration_s": self.duration_s,
            "total": self.total,
            "done": self.count(DONE),
            "failed": self.count(FAILED),
            "running": self.count(RUNNING),
            "pending": self.count(PENDING),
            "complete": self.complete,
            "retries": sum(point.retries for point in self.points),
            "faults": dict(self.faults),
            "points": [
                {
                    "index": point.index,
                    "id": point.id,
                    "status": point.status,
                    "seeds_done": len(point.seeds_done),
                    "retries": point.retries,
                    "last_failure": point.last_failure or point.error,
                }
                for point in self.points
            ],
        }

    # -------------------------------------------------------------- (de)io --

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def save(self, path: str | Path) -> None:
        """Start a fresh log: the whole document as line 1, in one rename."""
        atomic_write_text(Path(path), checksummed_line(self.to_dict()) + "\n")

    def append_point(self, path: str | Path, point: PointState) -> None:
        """Durably log ``point``'s current state as one absolute line."""
        durable_append_line(path, checksummed_line({"point": dataclasses.asdict(point)}))

    def append_faults(self, path: str | Path) -> None:
        """Durably log the campaign-level ``faults`` counters."""
        durable_append_line(path, checksummed_line({"faults": self.faults}))

    @staticmethod
    def load(path: str | Path) -> "Manifest":
        """Fold the log: line 1, then each later line in order; never writes.

        A torn final line is dropped; a missing, garbled or malformed line 1
        is a :class:`ManifestError`.
        """
        path = Path(path)
        try:
            records = read_checksummed_lines(path, "campaign manifest")
        except FileNotFoundError:
            raise ManifestError(f"no manifest at {path}") from None
        except OSError as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from None
        if not records:
            raise ManifestError(f"unreadable manifest {path}: line 1 is missing or corrupt")
        data = records[0]
        try:
            if data["version"] != MANIFEST_VERSION:
                raise ManifestError(
                    f"manifest {path} has version {data['version']}, "
                    f"this code reads version {MANIFEST_VERSION}"
                )
            points = [PointState(**point) for point in data.pop("points")]
            manifest = Manifest(**data, points=points)
            slots = {point.id: n for n, point in enumerate(manifest.points)}
            for record in records[1:]:
                if "point" in record:
                    point = PointState(**record["point"])
                    manifest.points[slots[point.id]] = point
                elif "faults" in record:
                    manifest.faults = dict(record["faults"])
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed manifest {path}: {exc}") from None
        return manifest
