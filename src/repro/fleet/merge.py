"""Merge step: fold shard campaign directories back into one canonical run.

Each shard worker produced a row-filtered campaign directory (a manifest
log whose points keep their *global* grid indices, each done point's line
carrying its results).  :func:`merge_fleet` stitches those back into the
fleet root's own manifest log / ``results.csv`` / ``results.json`` —
byte-identical in metrics fingerprints to a single-host
``repro campaign run`` of the same spec, because each done
:class:`PointState` carries its results into the merged line 1 unchanged
and the reporting layer is the exact same
:func:`repro.campaign.runner.write_reports`.

The merge is idempotent and order-independent by construction: every point
slots into its global grid position, duplicate ownership is an error rather
than a last-writer-wins race, and a partial merge (some shards dead) leaves
the missing points pending so "merge the survivors" still writes reports.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from repro.campaign.manifest import PENDING, RUNNING, Manifest, PointState, add_faults
from repro.campaign.runner import load_point_results, manifest_path, write_reports
from repro.campaign.spec import CampaignSpec, expand_grid, point_id, spec_hash
from repro.fleet.plan import FleetError


def default_shard_dirs(out_dir: str | Path) -> list[Path]:
    """The fleet root's shard directories, in shard-index order."""
    shards_root = Path(out_dir) / "shards"
    if not shards_root.is_dir():
        return []
    return sorted(path for path in shards_root.iterdir() if path.is_dir())


def merge_fleet(
    spec: CampaignSpec,
    out_dir: str | Path,
    shard_dirs: Iterable[str | Path] | None = None,
) -> Manifest:
    """Merge shard results under ``out_dir`` into the canonical artifacts.

    Reads each shard's manifest (a shard killed mid-append still merges),
    validates it against ``spec`` and writes the merged manifest, whose
    line 1 carries every done point's results, plus
    ``results.csv`` / ``results.json``.  Points no
    surviving shard completed stay ``pending`` in the merged manifest, so
    ``complete`` honestly reports whether the fleet covered the whole grid.
    """
    out = Path(out_dir)
    expected: dict[str, tuple[int, dict[str, Any]]] = {
        point_id(params): (index, dict(params))
        for index, params in enumerate(expand_grid(spec))
    }
    digest = spec_hash(spec)

    dirs = (
        [Path(d) for d in shard_dirs]
        if shard_dirs is not None
        else default_shard_dirs(out)
    )
    merged: dict[str, PointState] = {}
    code_versions: set[str] = set()
    telemetry = False
    faults: dict[str, Any] = {}
    for shard_dir in dirs:
        manifest = Manifest.load(manifest_path(shard_dir))
        if manifest.spec_hash != digest:
            raise FleetError(
                f"shard {shard_dir} was run for spec hash {manifest.spec_hash}, "
                f"this merge expects {digest}; the fleet out dir is stale"
            )
        code_versions.add(manifest.code_version)
        telemetry = telemetry or manifest.telemetry
        faults = add_faults(faults, manifest.faults)
        for point in manifest.points:
            if point.id not in expected:
                raise FleetError(
                    f"shard {shard_dir} contains point {point.id} that is not "
                    "in the expanded grid; spec and shard outputs are out of sync"
                )
            if point.id in merged:
                raise FleetError(
                    f"point {point.id} appears in more than one shard manifest; "
                    "the shard plan the workers used does not partition the grid"
                )
            if point.status == RUNNING:
                # A shard manifest snapshotted mid-point (worker killed with
                # the point in flight): in the merged view that point simply
                # was not computed.  Normalize so a survivors-merge reports
                # pending, not a liveness state no process backs anymore.
                point = PointState(
                    id=point.id,
                    index=point.index,
                    params=point.params,
                    status=PENDING,
                    retries=point.retries,
                    last_failure=point.last_failure,
                )
            merged[point.id] = point
    if len(code_versions) > 1:
        raise FleetError(
            f"shards were run under {len(code_versions)} different code "
            f"versions ({sorted(code_versions)}); results are not comparable — "
            "rerun the fleet from a fresh out dir"
        )

    # Points no shard covered (dead shard merged as "survivors") stay pending.
    points = [
        merged.get(pid, PointState(id=pid, index=index, params=params))
        for pid, (index, params) in expected.items()
    ]
    points.sort(key=lambda point: point.index)
    faults["merged_shards"] = len(dirs)
    manifest = Manifest(
        name=spec.name,
        builder=spec.builder,
        spec_hash=digest,
        code_version=next(iter(code_versions)) if code_versions else "",
        seeds=list(spec.seeds),
        duration_s=spec.duration_s,
        points=points,
        telemetry=telemetry,
        faults=faults,
    )
    manifest.save(manifest_path(out))
    write_reports(out, manifest)
    return manifest


def collect_fleet_telemetry(out_dir: str | Path):
    """Aggregate per-point telemetry snapshots of a merged fleet run.

    Returns a single merged :class:`repro.obs.TelemetrySnapshot`, or None if
    the run captured no telemetry.  Reads the *merged* manifest, so call
    after :func:`merge_fleet`.
    """
    from repro.obs import TelemetrySnapshot, merge_snapshots

    results = load_point_results(out_dir, Manifest.load(manifest_path(out_dir)))
    snapshots = [
        TelemetrySnapshot.from_dict(payload["telemetry"])
        for payload in results.values()
        if payload["telemetry"]
    ]
    if not snapshots:
        return None
    return merge_snapshots(snapshots)
