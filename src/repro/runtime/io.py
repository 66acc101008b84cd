"""Durable writes, shared by the result cache, manifests and the journal.

*Whole files* go through :func:`atomic_write_text`: a SIGKILLed writer
leaves either the old file or the new file, never a torn one.  The recipe
is the classic one:

1. write the full content to a temp file in the *same directory* (so the
   final rename never crosses a filesystem),
2. ``fsync`` the temp file, so the data is on disk before the rename
   publishes it,
3. ``os.replace`` onto the destination (atomic on POSIX),
4. ``fsync`` the directory, so the rename itself survives a power cut.

*Logs* (the fleet journal, the campaign manifest) are fsync'd appends of
:func:`checksummed_line` records.  A crash can only tear the final line:
:func:`read_checksummed_lines` drops it, and the log's owner cuts it off
with :func:`truncate_torn_tail` before appending again.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any


def fsync_dir(path: Path) -> None:
    """Flush directory metadata (renames) to disk; best-effort on exotic FS."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-fd support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on FAT/network mounts
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    backup_suffix: str | None = None,
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename).

    ``backup_suffix`` preserves the previous content at ``path + suffix``
    before the rename.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if backup_suffix is not None and path.exists():
            os.replace(path, str(path) + backup_suffix)
        os.replace(tmp_name, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def durable_append_line(path: str | Path, text: str) -> None:
    """Append one line to ``path`` and fsync it — the log counterpart of
    :func:`atomic_write_text`.  The first append also fsyncs the parent
    directory, so the file's creation itself survives a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    created = not path.exists()
    with path.open("a") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        fsync_dir(path.parent)


def _checksum(record: dict[str, Any]) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def checksummed_line(record: dict[str, Any]) -> str:
    """``record`` plus the sha256 of its canonical JSON, as one such line."""
    return json.dumps(
        {**record, "sha256": _checksum(record)}, sort_keys=True, separators=(",", ":")
    )


def read_checksummed_lines(path: str | Path, what: str) -> list[dict[str, Any]]:
    """The valid records of a :func:`checksummed_line` log, in order; never writes.

    Bytes after the last newline are a torn append and are ignored.  Reading
    stops at the first line that fails to parse or checksum: silently if it
    is the last line, else with a warning naming the log as ``what`` (the
    file was corrupted in place; the valid prefix beats refusing to start).
    """
    lines = Path(path).read_bytes().rpartition(b"\n")[0].split(b"\n")
    records: list[dict[str, Any]] = []
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            bad = f"not valid JSON ({exc})"
        else:
            stated = record.pop("sha256", None) if isinstance(record, dict) else None
            bad = None if stated == _checksum(record) else "checksum mismatch"
        if bad is not None:
            if number != len(lines) - 1:
                warnings.warn(
                    f"{what} {path} line {number + 1}: {bad}; dropping this line "
                    f"and the {len(lines) - number - 1} after it (append-only "
                    "integrity ends at the first bad record)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            break
        records.append(record)
    return records


def truncate_torn_tail(path: str | Path) -> None:
    """Cut ``path`` (if it exists) back to its last newline, durably, so
    the owner's next append cannot glue a new line onto a torn fragment."""
    try:
        with open(path, "rb+") as handle:
            keep = handle.read().rfind(b"\n") + 1
            if keep < handle.tell():
                handle.truncate(keep)
                os.fsync(handle.fileno())
    except FileNotFoundError:
        pass


def clean_stale_tmp(directory: str | Path, max_age_s: float = 3600.0) -> int:
    """Remove ``*.tmp`` debris left behind by killed writers; returns count.

    Only files older than ``max_age_s`` are touched, so a live writer's
    in-flight temp file in a shared directory is never deleted.  Call this
    from single-writer owners (the campaign runner owns its out dir).
    """
    import time

    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    cutoff = time.time() - max_age_s
    for tmp in directory.glob("*.tmp"):
        try:
            if tmp.stat().st_mtime < cutoff:
                tmp.unlink()
                removed += 1
        except OSError:
            continue
    return removed
