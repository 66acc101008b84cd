"""Durable atomic file writes, shared by the result cache and manifests.

Both :mod:`repro.runtime.cache` and :mod:`repro.campaign.manifest` persist
state that must survive being interrupted at any instruction — a SIGKILLed
campaign must leave either the old file or the new file, never a torn one.
The recipe is the classic one:

1. write the full content to a temp file in the *same directory* (so the
   final rename never crosses a filesystem),
2. ``fsync`` the temp file, so the data is on disk before the rename
   publishes it,
3. ``os.replace`` onto the destination (atomic on POSIX),
4. ``fsync`` the directory, so the rename itself survives a power cut.

``backup_suffix`` additionally rotates the previous file content aside
before the rename (e.g. ``manifest.json`` -> ``manifest.json.bak``), which
gives readers a one-version-old fallback if the destination is ever caught
corrupt — the crash-consistent recovery path of
:meth:`repro.campaign.manifest.Manifest.load_or_recover`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


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
    """Append one line to ``path`` and fsync it — the JSONL journal idiom.

    Appends are the write-ahead-log counterpart of :func:`atomic_write_text`:
    a crash mid-append can only tear the *final* line, which journal readers
    detect (newline missing / JSON truncated / checksum mismatch) and drop.
    The first append also fsyncs the parent directory so the journal file's
    creation itself survives a power cut.
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
