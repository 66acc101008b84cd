"""End-to-end campaign runs: manifests, resume, failures, serial equivalence.

The acceptance bar from the issue: a campaign run of the Figure 1 spec must
reproduce the serial ``repro run fig1`` numbers exactly for the same seeds,
and resuming a finished campaign re-executes zero points.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import (
    BACKUP_SUFFIX,
    DONE,
    FAILED,
    PENDING,
    CampaignError,
    Manifest,
    ManifestError,
    aggregate,
    load_point_results,
    manifest_path,
    point_path,
    run_campaign,
    spec_from_dict,
    spec_hash,
)
from repro.experiments import fig1_nav_udp
from repro.experiments.common import RunSettings

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "campaigns"

SMALL = {
    "campaign": {
        "name": "small",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.2,
    },
    "params": {"transport": "udp"},
    "zip": {"alpha": [0, 6], "nav_inflation_us": [0.0, 600.0]},
}


def small_spec():
    return spec_from_dict(SMALL)


def test_run_produces_manifest_points_and_reports(tmp_path):
    spec = small_spec()
    summary = run_campaign(spec, out_dir=tmp_path, jobs=1)
    assert summary.executed == 2 and summary.skipped == 0 and summary.failed == 0
    manifest = Manifest.load(manifest_path(tmp_path))
    assert manifest.complete and manifest.total == 2
    assert manifest.spec_hash == spec_hash(spec)
    for point in manifest.points:
        assert point.status == DONE
        assert point.seeds_done == [1, 2]
        payload = json.loads(point_path(tmp_path, point).read_text())
        assert set(payload["per_seed"]) == {"1", "2"}
        assert "goodput_R0" in payload["median"]
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.json").exists()


def test_resume_reexecutes_nothing(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert summary.executed == 0
    assert summary.skipped == 2


def test_rerun_without_resume_hits_the_cache(tmp_path):
    spec = small_spec()
    first = run_campaign(spec, out_dir=tmp_path)
    assert first.cache_stats["hits"] == 0
    again = run_campaign(spec, out_dir=tmp_path)  # fresh manifest, same cache
    assert again.executed == 2  # points re-run ...
    assert again.cache_stats["hits"] == 4  # ... but every seed comes from cache


def test_resume_after_simulated_interrupt(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    # Simulate a run interrupted mid-point: the manifest says pending and the
    # point file never landed.
    manifest = Manifest.load(manifest_path(tmp_path))
    victim = manifest.points[0]
    victim.status = PENDING
    victim.seeds_done = []
    manifest.save(manifest_path(tmp_path))
    point_path(tmp_path, victim).unlink()

    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert summary.executed == 1  # only the interrupted point
    assert summary.skipped == 1
    assert Manifest.load(manifest_path(tmp_path)).complete


def test_resume_refuses_a_changed_spec(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    changed = dict(SMALL, campaign=dict(SMALL["campaign"], duration_s=0.3))
    with pytest.raises(CampaignError, match="spec"):
        run_campaign(spec_from_dict(changed), out_dir=tmp_path, resume=True)


def test_resume_refuses_a_changed_code_version(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    manifest = Manifest.load(manifest_path(tmp_path))
    manifest.code_version = "0" * 16  # as if the simulator changed since
    manifest.save(manifest_path(tmp_path))
    with pytest.raises(CampaignError, match="code changed"):
        run_campaign(spec, out_dir=tmp_path, resume=True)


def test_failed_point_is_recorded_and_run_continues(tmp_path):
    data = {
        "campaign": {
            "name": "failing",
            "builder": "nav_pairs",
            "seeds": [1],
            "duration_s": 0.1,
        },
        "params": {"transport": "udp"},
        # the second value names a frame kind that does not exist, so that
        # point's builder raises inside the worker
        "sweep": {"inflate_frames": [["CTS"], ["NOPE"]]},
    }
    summary = run_campaign(spec_from_dict(data), out_dir=tmp_path)
    assert summary.executed == 1 and summary.failed == 1
    manifest = Manifest.load(manifest_path(tmp_path))
    assert manifest.count(DONE) == 1
    assert manifest.count(FAILED) == 1
    failed = next(p for p in manifest.points if p.status == FAILED)
    assert "NOPE" in failed.error
    assert not manifest.complete
    # reports cover the done point only
    results = load_point_results(tmp_path, manifest)
    columns, rows = aggregate(manifest, results)
    assert len(rows) == 1
    assert columns[:2] == ["index", "point"]


def test_corrupt_point_file_is_a_readable_error(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    manifest = Manifest.load(manifest_path(tmp_path))
    point_path(tmp_path, manifest.points[0]).write_text("{not json")
    with pytest.raises(CampaignError, match="missing or corrupt"):
        load_point_results(tmp_path, manifest)


def test_parallel_campaign_matches_serial_campaign(tmp_path):
    spec = small_spec()
    serial = run_campaign(spec, out_dir=tmp_path / "serial", jobs=1)
    fanned = run_campaign(spec, out_dir=tmp_path / "fanned", jobs=2)
    a = load_point_results(tmp_path / "serial", serial.manifest)
    b = load_point_results(tmp_path / "fanned", fanned.manifest)
    assert a == b  # floats exact, no tolerance


@pytest.mark.skipif(
    not (EXAMPLES / "fig1_nav_udp.toml").exists(), reason="example spec missing"
)
def test_fig1_campaign_matches_serial_experiment(tmp_path):
    """Acceptance: campaign medians == `repro run fig1` numbers, bit for bit."""
    tomllib = pytest.importorskip("tomllib")  # noqa: F841
    from repro.campaign import load_spec

    spec = load_spec(EXAMPLES / "fig1_nav_udp.toml", quick=True)
    summary = run_campaign(spec, out_dir=tmp_path, jobs=2)
    assert summary.failed == 0 and summary.manifest.complete
    results = load_point_results(tmp_path, summary.manifest)
    by_alpha = {
        payload["params"]["alpha"]: payload["median"] for payload in results.values()
    }

    serial = fig1_nav_udp.run(RunSettings.quick())
    assert len(serial.rows) == len(by_alpha) == 5
    for row in serial.rows:
        med = by_alpha[row["alpha"]]
        assert med["goodput_R0"] == row["goodput_NR"]
        assert med["goodput_R1"] == row["goodput_GR"]


# -------------------------------------------- crash-consistent manifests ----


def test_manifest_save_rotates_a_backup(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    backup = Path(str(manifest_path(tmp_path)) + BACKUP_SUFFIX)
    assert backup.exists()
    # the backup is itself a loadable manifest (the pre-finalize snapshot)
    recovered = Manifest.load(backup)
    assert recovered.total == 2


def test_torn_manifest_recovers_from_backup(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    intact = path.read_bytes()
    path.write_bytes(intact[: len(intact) // 2])  # SIGKILL mid-write

    with pytest.raises(ManifestError, match="unreadable manifest"):
        Manifest.load(path)
    recovered = Manifest.load_or_recover(path)
    assert recovered.total == 2
    # recovery re-publishes the primary so plain load works again
    assert Manifest.load(path).total == 2


def test_load_latest_reads_the_backup_without_writing(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    intact = path.read_bytes()
    torn = intact[: len(intact) // 2]
    path.write_bytes(torn)
    backup = Path(str(path) + BACKUP_SUFFIX)
    backup_bytes = backup.read_bytes()

    assert Manifest.load_latest(path).total == 2
    assert path.read_bytes() == torn  # the reader left the primary alone
    assert backup.read_bytes() == backup_bytes
    backup.unlink()
    with pytest.raises(ManifestError, match="unreadable manifest"):
        Manifest.load_latest(path)


def test_resume_after_torn_manifest_skips_done_points(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    path = manifest_path(tmp_path)
    intact = path.read_bytes()
    path.write_bytes(intact[: len(intact) // 2])

    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert summary.executed == 0
    assert summary.skipped == 2
    assert summary.failed == 0


def test_torn_manifest_without_backup_is_a_hard_error(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    intact = path.read_bytes()
    path.write_bytes(intact[: len(intact) // 2])
    Path(str(path) + BACKUP_SUFFIX).unlink()
    with pytest.raises(ManifestError, match="unreadable manifest"):
        Manifest.load_or_recover(path)


def test_retry_telemetry_roundtrips_through_save_and_load(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    manifest = Manifest.load(path)
    manifest.points[0].retries = 3
    manifest.points[0].last_failure = "JobTimeoutError: watchdog"
    manifest.faults = {"pool_rebuilds": 1, "worker_kills": 2,
                      "degraded_to_serial": False}
    manifest.save(path)

    loaded = Manifest.load(path)
    assert loaded.points[0].retries == 3
    assert loaded.points[0].last_failure == "JobTimeoutError: watchdog"
    assert loaded.faults["worker_kills"] == 2


def test_manifest_from_before_fault_tolerance_still_loads(tmp_path):
    """Forward compatibility: pre-repro.faults manifests lack the new keys."""
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    data = json.loads(path.read_text())
    data.pop("faults", None)
    data.pop("telemetry", None)
    for point in data["points"]:
        point.pop("retries", None)
        point.pop("last_failure", None)
    path.write_text(json.dumps(data))

    loaded = Manifest.load(path)
    assert loaded.faults == {}
    assert all(p.retries == 0 and p.last_failure is None for p in loaded.points)
