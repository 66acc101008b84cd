"""Campaign engine: expand the grid, fan points out, record, aggregate.

One campaign run is a loop over the expanded grid.  Each point becomes a
:class:`repro.runtime.JobSpec` for the named builder and fans its seeds out
through :func:`repro.runtime.map_over_seeds` — the same process pool and
on-disk :class:`~repro.runtime.cache.ResultCache` the per-figure experiments
use, so a campaign point and the equivalent serial experiment produce
bit-identical numbers for equal seeds.

Everything lands in one output directory::

    results/campaigns/<name>/
        manifest.jsonl      # spec hash, code version, per-point status and
                            # results (a log)
        results.csv         # tidy per-point table (params + metric medians)
        results.json        # full results: per-seed values + medians
        cache/              # per-seed result cache

Each point transition appends one fsync'd line to the manifest log, so a
killed run leaves a valid partial record; a ``done`` line carries the
point's per-seed metrics, and ``--resume`` skips every point whose ``done``
line survived.  Reports are built from the log as loaded from disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.campaign.builders import get_builder
from repro.campaign.manifest import (
    DONE,
    FAILED,
    RUNNING,
    Manifest,
    PointState,
    add_faults,
    atomic_write_text,
    manifest_path,
)
from repro.campaign.spec import CampaignSpec, expand_grid, point_id, spec_hash
from repro.runtime import (
    ExecutionReport,
    ResultCache,
    RetryPolicy,
    WorkerPool,
    clean_stale_tmp,
    code_version_token,
    map_over_seeds,
    seed_job,
)
from repro.runtime.io import truncate_torn_tail
from repro.stats.summary import median

#: Default root for campaign outputs, mirroring the experiments' results dir.
DEFAULT_CAMPAIGN_ROOT = Path("results") / "campaigns"


class CampaignError(RuntimeError):
    """A campaign run cannot proceed; the message says why."""


@dataclass
class CampaignRun:
    """Summary of one ``run_campaign`` invocation."""

    spec: CampaignSpec
    manifest: Manifest
    out_dir: Path
    executed: int  # points actually run this invocation
    skipped: int  # points skipped because the manifest marked them done
    failed: int  # points whose runner raised
    cache_stats: dict[str, int] | None


def default_out_dir(spec: CampaignSpec) -> Path:
    """Where a campaign's artifacts live unless ``--out`` says otherwise."""
    return DEFAULT_CAMPAIGN_ROOT / spec.name


def _fresh_manifest(
    spec: CampaignSpec,
    telemetry: bool = False,
    point_ids: frozenset[str] | None = None,
) -> Manifest:
    points = [
        PointState(id=point_id(params), index=index, params=dict(params))
        for index, params in enumerate(expand_grid(spec))
    ]
    ids = [point.id for point in points]
    if len(set(ids)) != len(ids):  # two grid points with identical parameters
        raise CampaignError(
            f"campaign {spec.name!r} expands to duplicate points; "
            "check the sweep/zip axes for repeated values"
        )
    if point_ids is not None:
        unknown = sorted(set(point_ids) - set(ids))
        if unknown:
            raise CampaignError(
                f"campaign {spec.name!r}: selected point id(s) {unknown} are "
                "not in the expanded grid (spec and shard plan out of sync?)"
            )
        # Keep the *global* grid index: a shard manifest's points slot
        # straight back into the canonical merged manifest.
        points = [point for point in points if point.id in point_ids]
    return Manifest(
        name=spec.name,
        builder=spec.builder,
        spec_hash=spec_hash(spec),
        code_version=code_version_token(),
        seeds=list(spec.seeds),
        duration_s=spec.duration_s,
        points=points,
        telemetry=telemetry,
    )


def _resumable_manifest(
    spec: CampaignSpec,
    out_dir: Path,
    point_ids: frozenset[str] | None = None,
) -> Manifest:
    """Load an existing manifest and verify it matches this spec + code.

    The log's torn tail, if a SIGKILL left one, reads as the state before
    that transition and is cut off here, before this run appends.
    """
    manifest = Manifest.load(manifest_path(out_dir))
    if manifest.spec_hash != spec_hash(spec):
        raise CampaignError(
            f"cannot resume in {out_dir}: the manifest was written for spec "
            f"hash {manifest.spec_hash}, this spec resolves to "
            f"{spec_hash(spec)} (spec changed, or quick/full modes mixed); "
            "rerun without --resume or use a fresh --out directory"
        )
    if manifest.code_version != code_version_token():
        raise CampaignError(
            f"cannot resume in {out_dir}: simulator code changed since the "
            "manifest was written (completed points would not be comparable "
            "with new ones); rerun without --resume"
        )
    if point_ids is not None and {p.id for p in manifest.points} != set(point_ids):
        raise CampaignError(
            f"cannot resume in {out_dir}: the manifest covers a different "
            "point selection than this run requests (shard plan changed, "
            "e.g. a different shard count); use a fresh output directory"
        )
    truncate_torn_tail(manifest_path(out_dir))
    return manifest


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    resume: bool = False,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    progress: Callable[[str], None] | None = None,
    telemetry: bool = False,
    retry: RetryPolicy | None = None,
    pool: WorkerPool | None = None,
    point_ids: frozenset[str] | None = None,
) -> CampaignRun:
    """Run (or resume) a campaign; returns the invocation summary.

    ``point_ids`` restricts the run to a subset of the expanded grid (the
    fleet tier's shard workers use this).  Subset manifests keep each
    point's *global* grid index, so merging shard manifests reconstructs the
    canonical single-host manifest; resuming with a different selection than
    the on-disk manifest is refused (the shard plan changed under the run).

    Points execute sequentially in grid order; within a point, seeds fan out
    over ``jobs`` worker processes and the shared result cache (under
    ``<out>/cache`` unless ``cache_dir`` overrides it — so re-running a
    finished campaign without ``--resume`` recomputes nothing either).
    A point whose builder raises is marked failed in the manifest, and the
    run continues with the remaining points.

    Fan-out goes through a fault-tolerant :class:`~repro.runtime.WorkerPool`
    governed by ``retry`` (attempts, backoff, per-job wall-clock timeout,
    pool-rebuild budget — see :class:`~repro.runtime.RetryPolicy`).  Worker
    deaths and hung jobs are retried transparently; the retry budget each
    point spent is recorded in its manifest entry (``retries`` /
    ``last_failure``), and pool-level incidents land in ``manifest.faults``.
    Retried seeds re-run the identical JobSpec, so a campaign that survived
    faults reports bit-identical metrics to an undisturbed one.  ``pool``
    injects a caller-owned WorkerPool (the chaos harness uses this to
    observe worker PIDs); by default the campaign owns one for its duration.

    ``telemetry=True`` additionally runs one in-process *representative*
    repetition (the first seed) of each point inside a
    :func:`repro.obs.capture` and stores the snapshot in the point's result
    (worker processes don't report registries back, so per-seed telemetry of
    the fanned-out runs is deliberately out of scope).  The snapshot never
    feeds the metric medians — those still come exclusively from the seeded
    fan-out above.
    """
    out = Path(out_dir) if out_dir is not None else default_out_dir(spec)
    out.mkdir(parents=True, exist_ok=True)
    # Reap temp-file debris a SIGKILLed previous run may have left behind.
    clean_stale_tmp(out)

    if point_ids is not None:
        point_ids = frozenset(point_ids)
    log = manifest_path(out)
    if resume and log.exists():
        manifest = _resumable_manifest(spec, out, point_ids=point_ids)
    else:
        manifest = _fresh_manifest(spec, telemetry=telemetry, point_ids=point_ids)
        manifest.save(log)

    cache = None
    if use_cache:
        cache = ResultCache(Path(cache_dir) if cache_dir is not None else out / "cache")
    builder = get_builder(spec.builder)

    executed = skipped = failed = 0
    say = progress if progress is not None else lambda _message: None
    owned = WorkerPool(jobs=jobs, retry=retry) if pool is None else None
    active = pool if pool is not None else owned
    try:
        for point in manifest.points:
            label = f"point {point.index + 1}/{manifest.total} [{point.id}]"
            if point.status == DONE:
                skipped += 1
                say(f"{label} already done, skipped")
                continue
            # Mark the point in flight before dispatching, so status polls
            # (and post-crash manifests) can tell "being computed" from
            # "still queued".  A crash leaves it "running", which a resume
            # treats exactly like pending.
            point.status = RUNNING
            manifest.append_point(log, point)
            job = seed_job(builder, duration_s=spec.duration_s, **point.params)
            report = ExecutionReport()
            try:
                per_seed = map_over_seeds(
                    job, spec.seeds, jobs=jobs, cache=cache, pool=active,
                    report=report,
                )
            except Exception as exc:  # noqa: BLE001 - recorded, run continues
                point.status = FAILED
                point.seeds_done = []
                point.error = f"{type(exc).__name__}: {exc}"
                point.retries += report.total_retries
                point.last_failure = report.last_error or point.error
                manifest.append_point(log, point)
                failed += 1
                say(f"{label} FAILED: {point.error}")
                continue
            point.result = {
                "per_seed": {str(seed): metrics for seed, metrics in per_seed.items()},
                "median": _medians(per_seed),
                "telemetry": (
                    _point_telemetry(builder, spec, point.params)
                    if telemetry
                    else None
                ),
            }
            point.status = DONE
            point.seeds_done = list(spec.seeds)
            point.error = None
            point.retries += report.total_retries
            if report.last_error is not None:
                point.last_failure = report.last_error  # succeeded, but flaky
            manifest.append_point(log, point)
            executed += 1
            suffix = f", {report.total_retries} retries" if report.total_retries else ""
            say(f"{label} done ({len(spec.seeds)} seeds{suffix})")
    finally:
        manifest.faults = add_faults(manifest.faults, {
            "pool_rebuilds": active.rebuilds,
            "worker_kills": active.worker_kills,
            "degraded_to_serial": active.degraded,
        })
        manifest.append_faults(log)
        if owned is not None:
            owned.shutdown()

    # Report from the log as loaded, so every value takes the JSON round
    # trip a later ``repro campaign report`` of this directory sees.
    manifest = Manifest.load(log)
    write_reports(out, manifest)
    return CampaignRun(
        spec=spec,
        manifest=manifest,
        out_dir=out,
        executed=executed,
        skipped=skipped,
        failed=failed,
        cache_stats=cache.stats() if cache is not None else None,
    )


def _medians(per_seed: dict[int, dict[str, float]]) -> dict[str, float]:
    outcomes = list(per_seed.values())
    return {
        key: median([outcome[key] for outcome in outcomes]) for key in outcomes[0]
    }


def _point_telemetry(
    builder: Callable[..., dict[str, float]],
    spec: CampaignSpec,
    params: dict[str, Any],
) -> dict[str, Any]:
    """Snapshot of one in-process representative run (first seed) of a point."""
    from repro.obs import MetricsRegistry, capture

    registry = MetricsRegistry()
    seed = spec.seeds[0]
    with capture(registry):
        builder(seed=seed, duration_s=spec.duration_s, **params)
    return registry.snapshot(
        builder=spec.builder, seed=seed, duration_s=spec.duration_s
    ).to_dict()


# ------------------------------------------------------------- reporting ----


def metrics_fingerprint(out_dir: str | Path) -> dict[str, str]:
    """Per-point canonical JSON of everything scientific in a campaign output.

    Maps each done point's id to a ``sort_keys`` JSON blob of (params, per_seed, median)
    — exactly the content that must be bit-identical between a single-host
    run, a healed chaos run and a merged fleet run.  Telemetry and fault
    accounting are deliberately excluded: they describe *how* the run went,
    not what it measured.
    """
    results = load_point_results(out_dir, Manifest.load(manifest_path(out_dir)))
    return {
        point_id: json.dumps(
            {key: payload[key] for key in ("params", "per_seed", "median")},
            sort_keys=True,
        )
        for point_id, payload in results.items()
    }


def load_point_results(
    out_dir: str | Path, manifest: Manifest
) -> dict[str, dict[str, Any]]:
    """Results ({id: {id, params, per_seed, median, telemetry}}) of done points.

    Reads the ``done`` lines folded into ``manifest``; ``out_dir`` only
    names the campaign in errors.
    """
    results: dict[str, dict[str, Any]] = {}
    for point in manifest.points:
        if point.status != DONE:
            continue
        if point.result is None:
            raise CampaignError(
                f"point {point.id} of {out_dir} is done but its manifest line "
                "carries no result; rerun the campaign (without --resume)"
            )
        results[point.id] = {"id": point.id, "params": point.params, **point.result}
    return results


def aggregate(manifest: Manifest, results: dict[str, dict[str, Any]]) -> tuple[list[str], list[dict[str, Any]]]:
    """Tidy results table: one row per done point, params + metric medians.

    Returns ``(columns, rows)``.  Parameter columns come first, then metric
    columns, each sorted by name — the manifest round-trips through
    ``sort_keys`` JSON, so sorted columns keep the table layout identical
    whether it is built from a live run or reloaded from disk.
    """
    param_cols: list[str] = []
    metric_cols: list[str] = []
    telemetry_cols: list[str] = []
    rows: list[dict[str, Any]] = []
    for point in manifest.points:
        payload = results.get(point.id)
        if payload is None:
            continue
        for key in sorted(point.params):
            if key not in param_cols:
                param_cols.append(key)
        for key in sorted(payload["median"]):
            if key not in metric_cols:
                metric_cols.append(key)
        row = {
            "index": point.index,
            "point": point.id,
            **point.params,
            **payload["median"],
        }
        flat = _flat_telemetry(payload.get("telemetry"))
        for key in flat:
            if key not in telemetry_cols:
                telemetry_cols.append(key)
        row.update(flat)
        rows.append(row)
    return ["index", "point", *param_cols, *metric_cols, *telemetry_cols], rows


#: Representative-run gauges promoted to flat results.csv columns; the full
#: snapshot stays in the manifest's done lines / results.json.
_FLAT_TELEMETRY = {
    "tm_events": "sim.engine.events_processed",
    "tm_frames_sent": "phy.medium.frames_sent",
}


def _flat_telemetry(snapshot: dict[str, Any] | None) -> dict[str, float]:
    if not snapshot:
        return {}
    gauges = snapshot.get("gauges", {})
    return {
        column: gauges[key] for column, key in _FLAT_TELEMETRY.items() if key in gauges
    }


def write_reports(out_dir: str | Path, manifest: Manifest) -> tuple[Path, Path]:
    """Write ``results.csv`` (tidy medians) and ``results.json`` (full)."""
    out = Path(out_dir)
    results = load_point_results(out, manifest)
    columns, rows = aggregate(manifest, results)
    csv_path = out / "results.csv"
    atomic_write_text(csv_path, results_csv(columns, rows))

    json_path = out / "results.json"
    atomic_write_text(
        json_path,
        json.dumps(
            {
                "name": manifest.name,
                "builder": manifest.builder,
                "spec_hash": manifest.spec_hash,
                "code_version": manifest.code_version,
                "seeds": manifest.seeds,
                "duration_s": manifest.duration_s,
                "columns": columns,
                "points": [results[p.id] for p in manifest.points if p.id in results],
            },
            indent=2,
            sort_keys=True,
        ),
    )
    return csv_path, json_path


def results_csv(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """The ``results.csv`` text of an :func:`aggregate` table."""
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(row.get(column)) for column in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> str:
    """Render one CSV cell; floats keep full precision (repr round-trips)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text
