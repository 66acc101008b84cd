"""Asyncio fleet orchestrator: plan shards, dispatch, heal, merge.

:func:`run_fleet_async` is the campaign-level control loop.  It writes the
resolved spec to ``<out>/spec.json`` (the single artifact every worker reads
— workers never parse TOML), derives the deterministic shard plan, drives
one coroutine per shard through the chosen :class:`FleetExecutor`, and
merges the shard outputs into the canonical single-host artifacts.

Fault model — two layers, deliberately separate:

* *Within* a shard, the campaign runtime already heals: retries, watchdog
  kills, pool rebuilds, and a manifest log whose torn tail a resume cuts
  off.  The orchestrator never reaches inside a shard.
* *Of* a shard (worker process SIGKILLed, host gone), the orchestrator
  re-dispatches the same task up to ``max_shard_attempts`` times.  The
  worker always runs with ``resume=True`` against the same shard directory,
  so a re-dispatch recomputes only what the dead attempt had not finished —
  and because success is judged from the shard's *manifest* (not the
  executor's exit code), a worker killed after completing its last point
  still counts as done.

Fleet state (``<out>/fleet.json``) is only ever mutated on the event-loop
thread; executors run in worker threads via ``asyncio.to_thread`` and
communicate results back as return values, so there is no cross-thread
mutation to race.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.manifest import DONE, Manifest, ManifestError, manifest_path
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, spec_from_dict, spec_to_dict, spec_hash
from repro.fleet.executor import FleetExecutor, ShardTask, get_executor
from repro.fleet.merge import merge_fleet
from repro.fleet.plan import FleetError, ShardPlan, plan_shards
from repro.runtime import code_version_token
from repro.runtime.io import atomic_write_text

FLEET_STATE_VERSION = 1

#: Shard lifecycle states recorded in ``fleet.json``.
SHARD_PENDING = "pending"
SHARD_RUNNING = "running"
SHARD_RETRYING = "retrying"
SHARD_DONE = "done"
SHARD_FAILED = "failed"
#: The orchestrator was cancelled (job cancel / service shutdown) while this
#: shard was in flight; its manifest makes a later resume cheap.
SHARD_INTERRUPTED = "interrupted"


def shard_dir(out_dir: str | Path, shard: int) -> Path:
    return Path(out_dir) / "shards" / f"{shard:02d}"


def spec_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "spec.json"


def fleet_state_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "fleet.json"


def load_spec_document(path: str | Path) -> CampaignSpec:
    """Load the resolved spec a fleet run shipped to its workers."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FleetError(f"unreadable fleet spec {path}: {exc}") from None
    return spec_from_dict(document, source=str(path))


def run_shard_inprocess(
    task: ShardTask, progress: Callable[[str], None] | None = None
) -> int:
    """Worker entry point: run one shard's points; 0 = every point done.

    Always resumes — a fresh shard directory has no manifest and starts
    clean, while a re-dispatched one skips everything the dead attempt
    finished.  This is what ``repro fleet worker`` calls, and what the local
    executor calls directly.  ``progress`` goes to :func:`run_campaign`.
    """
    spec = load_spec_document(task.spec_path)
    plan = plan_shards(spec, task.n_shards)
    if not 0 <= task.shard < task.n_shards:
        raise FleetError(f"shard {task.shard} out of range for n_shards={task.n_shards}")
    run = run_campaign(
        spec,
        out_dir=task.out_dir,
        jobs=task.jobs,
        resume=True,
        cache_dir=task.cache_dir,
        point_ids=frozenset(plan.shards[task.shard]),
        progress=progress,
    )
    return 0 if run.manifest.complete else 1


# ------------------------------------------------------------ fleet state ---


@dataclass
class ShardState:
    """Orchestrator-side status of one shard."""

    shard: int
    point_ids: list[str]
    status: str = SHARD_PENDING
    attempts: int = 0
    error: str | None = None


@dataclass
class FleetState:
    """Everything ``fleet.json`` records about one fleet run."""

    name: str
    spec_hash: str
    code_version: str
    n_shards: int
    executor: str
    shards: list[ShardState]
    version: int = FLEET_STATE_VERSION
    merged: bool = False

    def save(self, path: str | Path) -> None:
        atomic_write_text(Path(path), json.dumps(asdict(self), indent=2, sort_keys=True))

    @staticmethod
    def load(path: str | Path) -> "FleetState":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise FleetError(f"no fleet state at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"unreadable fleet state {path}: {exc}") from None
        try:
            if data["version"] != FLEET_STATE_VERSION:
                raise FleetError(
                    f"fleet state {path} has version {data['version']}, "
                    f"this code reads version {FLEET_STATE_VERSION}"
                )
            shards = [ShardState(**shard) for shard in data["shards"]]
            return FleetState(
                name=data["name"],
                spec_hash=data["spec_hash"],
                code_version=data["code_version"],
                n_shards=data["n_shards"],
                executor=data["executor"],
                shards=shards,
                version=data["version"],
                merged=data.get("merged", False),
            )
        except (KeyError, TypeError) as exc:
            raise FleetError(f"malformed fleet state {path}: {exc}") from None


@dataclass
class FleetRun:
    """Summary of one :func:`run_fleet` invocation."""

    ok: bool
    merged: bool
    out_dir: Path
    state: FleetState
    manifest: Manifest | None = None
    error: str | None = None


# ----------------------------------------------------------- orchestrator ---


def _shard_complete(task: ShardTask, planned: tuple[str, ...]) -> bool:
    """Ground truth for shard success: its manifest, not the exit code."""
    try:
        manifest = Manifest.load(manifest_path(task.out_dir))
    except ManifestError:
        return False
    if {point.id for point in manifest.points} != set(planned):
        return False
    return all(point.status == DONE for point in manifest.points)


async def run_fleet_async(
    spec: CampaignSpec,
    out_dir: str | Path,
    *,
    n_shards: int,
    executor: str = "local",
    jobs: int = 1,
    max_shard_attempts: int = 3,
    max_parallel: int | None = None,
    progress: Callable[[str], None] | None = None,
    executor_obj: FleetExecutor | None = None,
) -> FleetRun:
    """Run a campaign as ``n_shards`` shards; heal dead shards; merge.

    ``max_parallel`` caps concurrently dispatched shards (default: all).
    ``executor_obj`` injects a pre-built executor (tests use this to hook
    worker spawns); otherwise ``executor`` names one from the registry.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    say = progress if progress is not None else lambda _message: None
    digest = spec_hash(spec)
    token = code_version_token()

    # Resume fence at the fleet level, mirroring the campaign one: a stale
    # out dir (different spec or changed code) must not be silently reused.
    spec_file = spec_path(out)
    if spec_file.exists():
        previous = load_spec_document(spec_file)
        if spec_hash(previous) != digest:
            raise FleetError(
                f"fleet out dir {out} holds spec hash {spec_hash(previous)}, "
                f"this run resolves to {digest}; use a fresh --out directory"
            )
    state_file = fleet_state_path(out)
    if state_file.exists():
        previous_state = FleetState.load(state_file)
        if previous_state.code_version != token:
            raise FleetError(
                f"fleet out dir {out} was produced by different simulator "
                "code; completed shards would not be comparable — use a "
                "fresh --out directory"
            )
    atomic_write_text(
        spec_file, json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)
    )

    plan = plan_shards(spec, n_shards)
    exec_obj = executor_obj if executor_obj is not None else get_executor(executor)
    state = FleetState(
        name=spec.name,
        spec_hash=digest,
        code_version=token,
        n_shards=n_shards,
        executor=exec_obj.name,
        shards=[
            ShardState(shard=index, point_ids=list(ids))
            for index, ids in enumerate(plan.shards)
        ],
    )
    state.save(state_file)

    limit = max_parallel if max_parallel is not None else n_shards
    semaphore = asyncio.Semaphore(max(1, limit))

    async def drive(shard: int) -> bool:
        entry = state.shards[shard]
        planned = plan.shards[shard]
        if not planned:  # more shards than points: trivially done
            entry.status = SHARD_DONE
            state.save(state_file)
            return True
        task = ShardTask(
            spec_path=spec_file,
            out_dir=shard_dir(out, shard),
            shard=shard,
            n_shards=n_shards,
            jobs=jobs,
            cache_dir=out / "cache",
        )
        while entry.attempts < max_shard_attempts:
            entry.attempts += 1
            entry.status = SHARD_RUNNING
            state.save(state_file)
            say(f"shard {shard}: attempt {entry.attempts} ({len(planned)} points)")
            async with semaphore:
                outcome = await asyncio.to_thread(exec_obj.run_shard, task)
            # The manifest is the ground truth: a worker killed *after*
            # finishing its last point reports a bad exit code but is done.
            if _shard_complete(task, planned):
                entry.status = SHARD_DONE
                entry.error = None
                state.save(state_file)
                say(f"shard {shard}: complete")
                return True
            entry.error = outcome.error or f"exit code {outcome.returncode}"
            if entry.attempts < max_shard_attempts:
                entry.status = SHARD_RETRYING
                say(f"shard {shard}: died ({entry.error}); re-dispatching")
            else:
                entry.status = SHARD_FAILED
                say(f"shard {shard}: FAILED after {entry.attempts} attempts")
            state.save(state_file)
        return False

    try:
        results = await asyncio.gather(*(drive(shard) for shard in range(n_shards)))
    except asyncio.CancelledError:
        # The surrounding task was cancelled (job cancel, service shutdown).
        # Kill live shard workers so nothing keeps mutating the out dir, and
        # record the interruption — every touched shard resumes from its own
        # manifest on the next dispatch, so cancellation loses no work.
        exec_obj.cancel()
        for entry in state.shards:
            if entry.status in (SHARD_RUNNING, SHARD_RETRYING):
                entry.status = SHARD_INTERRUPTED
                entry.error = "interrupted by cancellation"
        state.save(state_file)
        say("fleet run cancelled; live shard workers stopped")
        raise

    if all(results):
        manifest = await asyncio.to_thread(merge_fleet, spec, out)
        state.merged = True
        state.save(state_file)
        say(f"merged {n_shards} shards: {manifest.count(DONE)}/{manifest.total} points")
        return FleetRun(ok=True, merged=True, out_dir=out, state=state, manifest=manifest)

    failed = [entry.shard for entry in state.shards if entry.status == SHARD_FAILED]
    error = f"shard(s) {failed} failed after {max_shard_attempts} attempts"
    say(error)
    return FleetRun(ok=False, merged=False, out_dir=out, state=state, error=error)


def run_fleet(
    spec: CampaignSpec,
    out_dir: str | Path,
    *,
    n_shards: int,
    executor: str = "local",
    jobs: int = 1,
    max_shard_attempts: int = 3,
    max_parallel: int | None = None,
    progress: Callable[[str], None] | None = None,
    executor_obj: FleetExecutor | None = None,
) -> FleetRun:
    """Synchronous wrapper around :func:`run_fleet_async`."""
    return asyncio.run(
        run_fleet_async(
            spec,
            out_dir,
            n_shards=n_shards,
            executor=executor,
            jobs=jobs,
            max_shard_attempts=max_shard_attempts,
            max_parallel=max_parallel,
            progress=progress,
            executor_obj=executor_obj,
        )
    )


# ---------------------------------------------------------------- status ----


def fleet_status_document(out_dir: str | Path) -> dict[str, Any]:
    """Machine-readable fleet status (``repro fleet status --json``).

    Combines ``fleet.json`` with live per-shard progress read from each
    shard's own campaign manifest, plus whether the merged artifacts exist.
    Read-only (:meth:`Manifest.load` never writes): shards may be appending
    to their manifest logs while a status poll reads them.
    """
    out = Path(out_dir)
    state = FleetState.load(fleet_state_path(out))
    shards: list[dict[str, Any]] = []
    for entry in state.shards:
        doc: dict[str, Any] = {
            "shard": entry.shard,
            "status": entry.status,
            "attempts": entry.attempts,
            "points": len(entry.point_ids),
            "error": entry.error,
            "done": 0,
            "failed": 0,
            "retries": 0,
        }
        try:
            manifest = Manifest.load(manifest_path(shard_dir(out, entry.shard)))
        except ManifestError:
            manifest = None
        if manifest is not None:
            doc["done"] = manifest.count(DONE)
            doc["failed"] = manifest.count("failed")
            doc["retries"] = sum(point.retries for point in manifest.points)
        shards.append(doc)
    merged_manifest = None
    if state.merged:
        try:
            merged_manifest = Manifest.load(manifest_path(out))
        except ManifestError:
            pass
    return {
        "name": state.name,
        "spec_hash": state.spec_hash,
        "code_version": state.code_version,
        "n_shards": state.n_shards,
        "executor": state.executor,
        "merged": state.merged,
        "complete": bool(merged_manifest is not None and merged_manifest.complete),
        "total": sum(len(entry.point_ids) for entry in state.shards),
        "done": sum(doc["done"] for doc in shards),
        "shards": shards,
    }
