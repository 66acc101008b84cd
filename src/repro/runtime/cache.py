"""On-disk result cache for seeded simulation points.

Entries live under ``results/.cache/`` (one JSON file per point) and are
keyed by a digest of (runner path, canonical kwargs, seed, code-version
token), so a repeated ``benchmarks/run_all.py`` invocation skips every
already-computed point while any code change invalidates the whole cache at
once.

Every entry carries a checksum over its result payload.  A corrupted,
truncated or checksum-mismatched entry is *quarantined* (moved aside into
``<root>/quarantine/``) and treated as a miss — the engine recomputes and
rewrites a clean entry.  The cache can never poison results and never
raises on bad entries; ``stats()['quarantined']`` counts the incidents.
Writes go through the fsync-ing atomic helper in :mod:`repro.runtime.io`,
so a SIGKILL mid-store leaves either the old entry or the new one.

Cross-process coordination: several processes may share one cache root (the
fleet tier points every shard worker at ``<out>/cache``).  Atomic writes
already make concurrent stores safe — the race only *wastes* work, never
tears an entry — so the per-entry locks here are purely advisory:
:meth:`ResultCache.try_claim` plants an ``O_EXCL`` lock file before an
expensive computation and :meth:`ResultCache.wait_for` lets the losing
process block until the winner publishes the entry instead of recomputing
it.  A claim whose holder died (stale pid, or lock older than
``lock_stale_s``) is broken and the entry recomputed — a crashed shard can
delay a sibling, never wedge it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from functools import lru_cache
from pathlib import Path

from repro.runtime.io import atomic_write_text
from repro.runtime.jobspec import JobSpec

#: Default cache location, relative to the repository's results directory.
DEFAULT_CACHE_DIRNAME = ".cache"

#: Subdirectory (under the cache root) where corrupt entries are moved for
#: post-mortem inspection instead of being served or crashing the run.
QUARANTINE_DIRNAME = "quarantine"

#: Subdirectory (under the cache root) holding advisory per-entry locks.
LOCKS_DIRNAME = "locks"

#: Manual cache-epoch fence, mixed into :func:`code_version_token`.  Bump it
#: whenever results must be recomputed for a reason the source digest cannot
#: see — e.g. the simulation-core fast path, which is bit-exact for equal
#: seeds but changed which module computes each cached quantity.
CODE_VERSION_SALT = "channel-sinr-3"


@lru_cache(maxsize=1)
def _source_token() -> str:
    """Digest of salt + every ``repro`` source file (channel-independent)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(CODE_VERSION_SALT.encode())
    digest.update(b"\0")
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version_token() -> str:
    """Digest of every ``repro`` source file: the cache's version fence.

    Any edit anywhere in the package changes the token, so stale results can
    never be served after a code change.  Coarse but safe — and cheap enough
    to compute once per process (the source digest is memoized).
    ``CODE_VERSION_SALT`` is folded in first, so an epoch bump invalidates
    every entry even with identical sources.

    The ambient channel model's ``cache_key`` is folded in last: the
    reference ``pairwise`` channel contributes an empty key, while a channel
    model with different interference semantics, like ``sinr``, gets its
    own cache namespace.  Per the equivalence contract in
    :mod:`repro.phy.channel`, results computed under different semantics
    may never be served interchangeably.
    """
    from repro.phy.channel import current_channel

    token = _source_token()
    extra = current_channel().cache_key
    if not extra:
        return token
    digest = hashlib.sha256(f"{token}:{extra}".encode())
    return digest.hexdigest()[:16]


def result_checksum(result: dict) -> str:
    """Checksum of a result payload (canonical JSON, order-independent)."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class EntryClaim:
    """Advisory ownership of one cache entry while it is being computed.

    Created by :meth:`ResultCache.try_claim`; :meth:`release` removes the
    lock file (idempotent, and a no-op on someone else's lock — the path is
    only ever unlinked by the claim object that created it).
    """

    __slots__ = ("path", "_owned")

    def __init__(self, path: Path) -> None:
        self.path = path
        self._owned = True

    def release(self) -> None:
        if not self._owned:
            return
        self._owned = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "EntryClaim":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


class ResultCache:
    """Filesystem cache of ``{metric: value}`` dicts, one file per JobSpec."""

    def __init__(
        self,
        root: str | Path,
        version: str | None = None,
        lock_stale_s: float = 900.0,
    ) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version_token()
        #: Age past which a lock whose holder cannot be probed is presumed
        #: abandoned (holders of *known-dead* pids are broken immediately).
        self.lock_stale_s = lock_stale_s
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.quarantined = 0
        self.claims = 0
        self.claim_conflicts = 0
        self.lock_breaks = 0
        self.waits = 0

    def path_for(self, spec: JobSpec) -> Path:
        return self.root / f"{spec.cache_key(self.version)}.json"

    def lock_path_for(self, spec: JobSpec) -> Path:
        return self.root / LOCKS_DIRNAME / f"{spec.cache_key(self.version)}.lock"

    def _read_entry(self, path: Path) -> dict[str, float] | None:
        """Read + verify one entry; corruption quarantines and returns None.

        Does not touch the hit/miss counters — :meth:`get` and
        :meth:`wait_for` account for their own outcomes.
        """
        try:
            payload = json.loads(path.read_text())
            result = payload["result"]
            if not isinstance(result, dict):
                raise ValueError("cache entry result is not a dict")
            stored = payload["checksum"]
            computed = result_checksum(result)
            if stored != computed:
                raise ValueError(
                    f"checksum mismatch (stored {stored}, computed {computed})"
                )
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            self.errors += 1
            self._quarantine(path, exc)
            return None
        return dict(result)

    def get(self, spec: JobSpec) -> dict[str, float] | None:
        """Cached result for ``spec``, or None (corruption counts as a miss)."""
        result = self._read_entry(self.path_for(spec))
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    # ------------------------------------------------------ advisory locks --

    def try_claim(self, spec: JobSpec) -> EntryClaim | None:
        """Claim the right to compute ``spec``'s entry; None if already held.

        The claim is an ``O_EXCL``-created lock file carrying the holder's
        pid.  A lock whose holder is a dead process (or unreadable and older
        than ``lock_stale_s``) is broken and re-claimed, so a SIGKILLed
        worker never wedges its siblings.  Purely advisory: callers that
        skip claiming still behave correctly, they just risk computing the
        same entry twice.
        """
        path = self.lock_path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        for _attempt in (0, 1):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if self._lock_is_stale(path):
                    self.lock_breaks += 1
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    continue  # retry the O_EXCL create once
                self.claim_conflicts += 1
                return None
            except OSError:
                return None  # cannot lock (exotic fs): fall back to no claim
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self.claims += 1
            return EntryClaim(path)
        self.claim_conflicts += 1
        return None

    def _lock_is_stale(self, path: Path) -> bool:
        """Whether a held lock's owner is provably or presumably gone."""
        try:
            pid = int(path.read_text().strip())
        except (OSError, ValueError):
            pid = None  # torn/unreadable lock: age decides below
        if pid is not None:
            if pid == os.getpid():
                return False  # our own claim (another thread of this process)
            try:
                os.kill(pid, 0)
                return False  # holder is alive
            except ProcessLookupError:
                return True  # holder died without releasing
            except OSError:
                pass  # cannot probe (e.g. other user's pid): age decides
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False  # lock vanished: released, not stale
        return age > self.lock_stale_s

    def wait_for(
        self,
        spec: JobSpec,
        timeout_s: float | None = None,
        poll_s: float = 0.05,
    ) -> dict[str, float] | None:
        """Wait for another process's claim on ``spec`` to publish the entry.

        Returns the entry as soon as it appears (a hit).  Returns None — a
        miss; the caller should compute the entry itself — when the lock is
        released or goes stale without an entry appearing (the holder
        crashed mid-compute) or ``timeout_s`` (default ``lock_stale_s``)
        elapses.
        """
        path = self.path_for(spec)
        lock = self.lock_path_for(spec)
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else self.lock_stale_s
        )
        self.waits += 1
        while True:
            result = self._read_entry(path)
            if result is not None:
                self.hits += 1
                return result
            if not lock.exists() or self._lock_is_stale(lock):
                # The holder is gone.  One more read closes the race where
                # it published the entry between our read and its release.
                result = self._read_entry(path)
                if result is not None:
                    self.hits += 1
                    return result
                self.misses += 1
                return None
            if time.monotonic() >= deadline:
                self.misses += 1
                return None
            time.sleep(poll_s)

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt entry aside (never served again, kept for debugging)."""
        destination = self.root / QUARANTINE_DIRNAME / path.name
        moved = False
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
            moved = True
        except OSError:
            try:  # cannot move (e.g. dir vanished): drop it so it can't recur
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1
        where = f"quarantined to {destination.parent.name}/" if moved else "removed"
        warnings.warn(
            f"ignoring corrupted cache entry {path.name}: {exc}; "
            f"{where}, recomputing",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, spec: JobSpec, result: dict[str, float]) -> None:
        """Store a result durably and atomically (fsync + rename)."""
        path = self.path_for(spec)
        result = dict(result)
        payload = {
            "runner": spec.runner,
            "seed": spec.seed,
            "version": self.version,
            "checksum": result_checksum(result),
            "result": result,
        }
        atomic_write_text(path, json.dumps(payload, sort_keys=True))
        self.stores += 1

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "quarantined": self.quarantined,
            "claims": self.claims,
            "claim_conflicts": self.claim_conflicts,
            "lock_breaks": self.lock_breaks,
            "waits": self.waits,
        }
