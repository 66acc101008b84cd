"""Campaign manifest: the on-disk record of what ran, enabling ``--resume``.

``manifest.json`` lives in the campaign's output directory and is rewritten
atomically after every completed point, so an interrupted run leaves a valid
partial manifest behind.  A resumed run reloads it, checks that the spec
hash and code-version token still match (a changed spec or changed simulator
code makes old numbers non-comparable), and skips every point already marked
done.

Crash consistency: every ``save`` goes through the fsync-ing atomic writer
in :mod:`repro.runtime.io` and rotates the previous manifest to
``manifest.json.bak`` first.  If a SIGKILL (or power cut) lands at the one
instant where the destination could be caught missing or torn,
:meth:`Manifest.load_or_recover` falls back to the ``.bak`` copy — at most
one completed point is forgotten and simply re-runs, which is safe because
point execution is deterministic and idempotent.

Fault accounting: ``PointState`` records the retry budget spent on each
point (``retries``) and the most recent failure message (``last_failure``),
persisted so ``repro campaign status`` can surface flaky points even after
the run eventually succeeded.  Both fields default, so manifests written
before the fault-tolerance layer still load.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runtime.io import atomic_write_text

MANIFEST_VERSION = 1

PENDING = "pending"
#: The runner has dispatched this point's seeds and not yet recorded an
#: outcome.  On disk this is a *liveness* signal: a resumed run treats it
#: exactly like pending (the interrupted attempt is re-run), but a status
#: poll can now distinguish "in flight right now" from "still queued".
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Suffix of the previous-manifest fallback rotated on every save.
BACKUP_SUFFIX = ".bak"


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
    #: Whether per-point telemetry snapshots were captured into the payloads.
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
        """Persist durably + atomically, rotating the old file to ``.bak``."""
        atomic_write_text(
            Path(path),
            json.dumps(self.to_dict(), indent=2, sort_keys=True),
            backup_suffix=BACKUP_SUFFIX,
        )

    @staticmethod
    def _from_dict(data: dict[str, Any], path: Path) -> "Manifest":
        try:
            if data["version"] != MANIFEST_VERSION:
                raise ManifestError(
                    f"manifest {path} has version {data['version']}, "
                    f"this code reads version {MANIFEST_VERSION}"
                )
            points = [PointState(**point) for point in data["points"]]
            return Manifest(
                name=data["name"],
                builder=data["builder"],
                spec_hash=data["spec_hash"],
                code_version=data["code_version"],
                seeds=list(data["seeds"]),
                duration_s=data["duration_s"],
                points=points,
                version=data["version"],
                telemetry=data.get("telemetry", False),
                faults=dict(data.get("faults", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed manifest {path}: {exc}") from None

    @staticmethod
    def load(path: str | Path) -> "Manifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ManifestError(f"no manifest at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from None
        return Manifest._from_dict(data, path)

    @staticmethod
    def load_latest(path: str | Path) -> "Manifest":
        """Load ``path``, else its ``.bak`` rotation; never writes.

        For readers that may race a live writer, such as fleet status polls.
        Between a save's rotate-to-``.bak`` step and its publish step the
        primary is briefly missing, and the backup is then the latest
        durable state.  Writing it back from a reader would either roll the
        manifest back past the writer's publish or race its rename.  A
        missing or torn primary with no readable backup raises the
        primary's :class:`ManifestError`.
        """
        path = Path(path)
        try:
            return Manifest.load(path)
        except ManifestError as exc:
            backup = Path(str(path) + BACKUP_SUFFIX)
            if not backup.exists():
                raise
            try:
                return Manifest.load(backup)
            except ManifestError:
                raise exc from None

    @staticmethod
    def load_or_recover(path: str | Path) -> "Manifest":
        """:meth:`load_latest`, re-publishing the backup if it was used.

        For the manifest's owner (a resuming runner, a finished shard).  The
        backup is one save older than the primary, so recovery forgets at
        most the single most recently completed point — it re-runs on resume,
        deterministically, rather than wedging the whole campaign behind an
        unreadable manifest.  A *missing* primary with no backup is still an
        error (there is nothing to resume).
        """
        path = Path(path)
        try:
            return Manifest.load(path)
        except ManifestError:
            recovered = Manifest.load_latest(path)
        # Re-publish the good copy so later saves rotate sane content.
        recovered.save(path)
        return recovered
