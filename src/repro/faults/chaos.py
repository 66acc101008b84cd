"""Chaos harness: prove campaign execution self-heals under injected faults.

The tier above :mod:`repro.runtime`'s unit-level fault tolerance: run a real
campaign while actively sabotaging it, then check the damage never reached
the science.  One :func:`run_chaos` call drives four phases under one root
directory:

1. **reference** — the campaign fault-free, with its own result cache.
2. **chaos** — the same spec against a fresh cache, through a caller-owned
   :class:`~repro.runtime.WorkerPool` that saboteur threads attack mid-run:
   SIGKILL a worker while a job is in flight, truncate result-cache entries
   as they appear on disk, and (profiles with ``hang=True``) make every
   job's first attempt park forever so the watchdog must kill it.
3. **heal** — re-run against the sabotaged cache into a fresh output
   directory: corrupt entries are quarantined and recomputed, intact ones
   replay, and the metrics must still match.
4. **recover** — tear the chaos run's manifest log mid-way through its
   final line (the only tear an append can leave), resume: zero re-runs.

The acceptance bar is byte-identity: the per-point results (per-seed
metrics + medians, as each run's ``done`` lines logged them) of phases 1–3
are compared as canonical JSON.  Retried
jobs re-run identical :class:`~repro.runtime.JobSpec`\\ s and every
simulation RNG is seed-derived, so any difference is a real robustness bug,
not noise.  :data:`PROFILES` ships a ``quick`` profile (worker kill + cache
truncation + manifest recovery; the CI ``chaos-smoke`` job) and a ``full``
profile that adds hung-job injection via the ``chaos_sleeper`` builder.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.campaign.manifest import Manifest
from repro.campaign.runner import (
    manifest_path,
    metrics_fingerprint,
    run_campaign,
)
from repro.campaign.spec import spec_from_dict
from repro.runtime import RetryPolicy, WorkerPool

#: Environment variable the ``chaos_sleeper`` builder checks for hang-once
#: injection; its value is the directory for the flag-file handshake.
HANG_ENV = "REPRO_CHAOS_HANG_ONCE"

#: How often saboteur threads poll for something to break.
_SABOTEUR_POLL_S = 0.005


def _default_retry() -> RetryPolicy:
    """Chaos default: tight backoff (tests stay fast), generous rebuilds."""
    return RetryPolicy(
        max_attempts=3,
        backoff_base_s=0.05,
        backoff_max_s=0.25,
        max_pool_rebuilds=8,
    )


@dataclass(frozen=True)
class ChaosProfile:
    """One chaos scenario: the campaign to disturb, and how hard."""

    name: str
    #: Campaign spec as plain data (the TOML document shape).
    spec: Mapping[str, Any]
    jobs: int = 2
    #: Workers to SIGKILL while a job is in flight.
    worker_kills: int = 1
    #: Result-cache entries to truncate mid-run.
    cache_truncations: int = 1
    #: Also tear the manifest log's final line and prove --resume recovers.
    recover_manifest: bool = True
    #: Park every job's first attempt (needs a ``retry.timeout_s``).
    hang: bool = False
    retry: RetryPolicy = field(default_factory=_default_retry)


PROFILES: dict[str, ChaosProfile] = {
    # CI smoke: a real-simulator campaign surviving a worker kill and a
    # truncated cache entry, plus recovery from a torn manifest log.
    "quick": ChaosProfile(
        name="quick",
        spec={
            "campaign": {
                "name": "chaos-quick",
                "builder": "nav_pairs",
                "seeds": [1, 2, 3],
                "duration_s": 0.2,
            },
            "params": {"transport": "udp"},
            "zip": {"alpha": [0, 3, 6], "nav_inflation_us": [0.0, 300.0, 600.0]},
        },
    ),
    # Adds hung-job injection: every first attempt parks, the watchdog kills
    # it, and the retry completes with identical metrics.
    "full": ChaosProfile(
        name="full",
        spec={
            "campaign": {
                "name": "chaos-full",
                "builder": "chaos_sleeper",
                "seeds": [1, 2, 3, 4],
                "duration_s": 0.1,
            },
            "params": {"work_s": 0.15},
            "sweep": {"point": [0, 1, 2]},
        },
        worker_kills=2,
        cache_truncations=2,
        hang=True,
        retry=RetryPolicy(
            max_attempts=4,
            timeout_s=2.0,
            backoff_base_s=0.05,
            backoff_max_s=0.25,
            max_pool_rebuilds=16,
        ),
    ),
}


@dataclass
class ChaosReport:
    """What was injected, what the campaign did about it, and the verdict."""

    profile: str
    points: int
    workers_killed: int
    cache_entries_truncated: int
    cache_entries_quarantined: int
    manifest_recovered: bool | None  # None: phase not run for this profile
    watchdog_kills: int
    retries_recorded: int  # sum of per-point `retries` in the chaos manifest
    pool_rebuilds: int
    degraded_to_serial: bool
    identical: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every injected fault landed and none of them changed a metric."""
        return not self.problems

    def summary_lines(self) -> list[str]:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos[{self.profile}] {verdict}: {self.points} points, "
            f"{self.workers_killed} worker(s) killed, "
            f"{self.cache_entries_truncated} cache entr(ies) truncated "
            f"({self.cache_entries_quarantined} quarantined on heal)",
            f"  retries recorded in manifest: {self.retries_recorded}, "
            f"pool rebuilds: {self.pool_rebuilds}, "
            f"watchdog kills: {self.watchdog_kills}, "
            f"degraded to serial: {self.degraded_to_serial}",
            "  metrics identical across reference/chaos/heal: "
            + ("yes" if self.identical else "NO"),
        ]
        if self.manifest_recovered is not None:
            lines.append(
                "  manifest recovery after a torn final line: "
                + ("yes" if self.manifest_recovered else "NO")
            )
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        return lines


# -------------------------------------------------------------- saboteurs ----


def _kill_worker_mid_job(
    pool: WorkerPool, stop: threading.Event, target: int, tally: dict[str, int]
) -> None:
    """SIGKILL ``target`` workers, each while at least one job is in flight.

    Waiting for ``inflight_count() > 0`` guarantees the break is observed as
    a mid-job pool failure (a free retry lands in the manifest), not as an
    idle-time break discovered at the next submit.
    """
    while not stop.is_set() and tally["killed"] < target:
        pids = pool.worker_pids()
        if pids and pool.inflight_count() > 0:
            try:
                os.kill(pids[0], signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            else:
                tally["killed"] += 1
                time.sleep(0.3)  # let the pool notice and rebuild first
                continue
        time.sleep(_SABOTEUR_POLL_S)


def _truncate_cache_entries(
    cache_dir: Path, stop: threading.Event, target: int, tally: dict[str, Any]
) -> None:
    """Truncate ``target`` distinct cache entry files as they appear."""
    while not stop.is_set() and tally["truncated"] < target:
        _truncate_some(cache_dir, 1, tally)
        time.sleep(_SABOTEUR_POLL_S)


def _truncate_some(cache_dir: Path, count: int, tally: dict[str, Any]) -> int:
    """Cut ``count`` not-yet-sabotaged entries in half; returns how many."""
    done = 0
    if not cache_dir.exists():
        return done
    for path in sorted(cache_dir.glob("*.json")):
        if done >= count:
            break
        if path.name in tally["names"]:
            continue
        try:
            data = path.read_bytes()
            if len(data) < 8:
                continue
            path.write_bytes(data[: len(data) // 2])
        except OSError:
            continue
        tally["names"].add(path.name)
        tally["truncated"] += 1
        done += 1
    return done


# ------------------------------------------------------------- comparison ----


def _compare(
    reference: dict[str, str], other: dict[str, str], label: str
) -> list[str]:
    problems = []
    if set(reference) != set(other):
        problems.append(
            f"{label}: point set differs from reference "
            f"(missing {sorted(set(reference) - set(other))}, "
            f"extra {sorted(set(other) - set(reference))})"
        )
    for pid in sorted(set(reference) & set(other)):
        if reference[pid] != other[pid]:
            problems.append(f"{label}: metrics of point {pid} differ from reference")
    return problems


# ------------------------------------------------------------------ drive ----


def run_chaos(
    profile: ChaosProfile | str,
    root: str | Path,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run one chaos profile under ``root``; returns the verdict report.

    Never raises on a robustness failure — every broken expectation lands in
    :attr:`ChaosReport.problems` so callers (CLI, CI, tests) can show all of
    them at once.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise KeyError(
                f"unknown chaos profile {profile!r}; known: {sorted(PROFILES)}"
            ) from None
    say = progress if progress is not None else lambda _message: None
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    spec = spec_from_dict(profile.spec, source=f"<chaos:{profile.name}>")

    say(f"[chaos:{profile.name}] reference run (fault-free)")
    reference = run_campaign(
        spec,
        out_dir=root / "reference",
        jobs=profile.jobs,
        cache_dir=root / "cache-reference",
    )

    chaos_out = root / "chaos"
    chaos_cache = root / "cache-chaos"
    killed = {"killed": 0}
    truncated: dict[str, Any] = {"truncated": 0, "names": set()}
    stop = threading.Event()
    pool = WorkerPool(jobs=profile.jobs, retry=profile.retry)
    saboteurs = []
    if profile.worker_kills:
        saboteurs.append(
            threading.Thread(
                target=_kill_worker_mid_job,
                args=(pool, stop, profile.worker_kills, killed),
                daemon=True,
            )
        )
    if profile.cache_truncations:
        saboteurs.append(
            threading.Thread(
                target=_truncate_cache_entries,
                args=(chaos_cache, stop, profile.cache_truncations, truncated),
                daemon=True,
            )
        )
    hang_installed = False
    try:
        if profile.hang:
            hang_dir = root / "hang-flags"
            hang_dir.mkdir(exist_ok=True)
            os.environ[HANG_ENV] = str(hang_dir)
            hang_installed = True
        for thread in saboteurs:
            thread.start()
        say(
            f"[chaos:{profile.name}] chaos run "
            f"({profile.worker_kills} worker kill(s), "
            f"{profile.cache_truncations} cache truncation(s)"
            + (", hang-once jobs" if profile.hang else "")
            + ")"
        )
        chaos = run_campaign(
            spec,
            out_dir=chaos_out,
            jobs=profile.jobs,
            cache_dir=chaos_cache,
            pool=pool,
        )
    finally:
        stop.set()
        for thread in saboteurs:
            thread.join(timeout=5.0)
        pool.shutdown()
        if hang_installed:
            del os.environ[HANG_ENV]

    chaos_manifest = Manifest.load(manifest_path(chaos_out))
    retries_recorded = sum(point.retries for point in chaos_manifest.points)
    faults = dict(chaos_manifest.faults)

    # If the run outpaced the truncator, sabotage the cache now — the heal
    # phase must exercise quarantine-and-recompute either way.
    if truncated["truncated"] < profile.cache_truncations:
        _truncate_some(
            chaos_cache,
            profile.cache_truncations - truncated["truncated"],
            truncated,
        )

    say(f"[chaos:{profile.name}] heal run (replay from the sabotaged cache)")
    heal = run_campaign(
        spec, out_dir=root / "healed", jobs=1, cache_dir=chaos_cache
    )
    quarantined = (heal.cache_stats or {}).get("quarantined", 0)

    manifest_recovered: bool | None = None
    if profile.recover_manifest:
        say(f"[chaos:{profile.name}] recovery run (manifest's final line torn)")
        mpath = manifest_path(chaos_out)
        data = mpath.read_bytes()
        final = data.rstrip(b"\n").rfind(b"\n") + 1
        mpath.write_bytes(data[: (final + len(data)) // 2])
        resumed = run_campaign(
            spec, out_dir=chaos_out, resume=True, cache_dir=chaos_cache
        )
        manifest_recovered = (
            resumed.skipped == len(chaos_manifest.points)
            and resumed.executed == 0
            and resumed.failed == 0
        )

    problems: list[str] = []
    for label, summary in (
        ("reference", reference),
        ("chaos", chaos),
        ("heal", heal),
    ):
        if summary.failed:
            problems.append(f"{label} run has {summary.failed} failed point(s)")
    if killed["killed"] < profile.worker_kills:
        problems.append(
            f"only {killed['killed']}/{profile.worker_kills} worker kills landed"
        )
    if truncated["truncated"] < profile.cache_truncations:
        problems.append(
            f"only {truncated['truncated']}/{profile.cache_truncations} "
            "cache truncations landed"
        )
    if quarantined < truncated["truncated"]:
        problems.append(
            f"heal run quarantined {quarantined} entries, "
            f"expected at least {truncated['truncated']}"
        )
    if profile.worker_kills and retries_recorded == 0:
        problems.append("manifest records no retries despite worker kills")
    if profile.hang and faults.get("worker_kills", 0) == 0:
        problems.append("no watchdog kills despite hang-once injection")
    if manifest_recovered is False:
        problems.append("resume after a torn manifest line did not skip all points")

    identical = True
    if not problems or all("run has" not in p for p in problems):
        prints = metrics_fingerprint(root / "reference")
        mismatches = _compare(prints, metrics_fingerprint(chaos_out), "chaos")
        mismatches += _compare(prints, metrics_fingerprint(root / "healed"), "heal")
        identical = not mismatches
        problems += mismatches
    else:  # a run failed outright; point results may be missing
        identical = False

    return ChaosReport(
        profile=profile.name,
        points=len(chaos_manifest.points),
        workers_killed=killed["killed"],
        cache_entries_truncated=truncated["truncated"],
        cache_entries_quarantined=quarantined,
        manifest_recovered=manifest_recovered,
        watchdog_kills=faults.get("worker_kills", 0),
        retries_recorded=retries_recorded,
        pool_rebuilds=faults.get("pool_rebuilds", 0),
        degraded_to_serial=bool(faults.get("degraded_to_serial", False)),
        identical=identical,
        problems=problems,
    )
