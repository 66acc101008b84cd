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
    DONE,
    FAILED,
    PENDING,
    CampaignError,
    Manifest,
    ManifestError,
    aggregate,
    load_point_results,
    manifest_path,
    run_campaign,
    spec_from_dict,
    spec_hash,
)
from repro.experiments import fig1_nav_udp
from repro.experiments.common import RunSettings
from repro.runtime.io import checksummed_line

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
        assert set(point.result["per_seed"]) == {"1", "2"}
        assert "goodput_R0" in point.result["median"]
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.json").exists()


def test_finished_run_leaves_the_log_the_reports_and_the_cache(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "cache", "manifest.jsonl", "results.csv", "results.json",
    ]


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
    # Simulate a run interrupted mid-point: the manifest says pending and
    # holds no result for it.
    manifest = Manifest.load(manifest_path(tmp_path))
    victim = manifest.points[0]
    victim.status = PENDING
    victim.seeds_done = []
    victim.result = None
    manifest.save(manifest_path(tmp_path))

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


def test_done_line_without_a_result_is_a_campaign_error_naming_the_point(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    manifest = Manifest.load(path)
    victim = manifest.points[0]
    victim.result = None  # a done line as logged before points carried results
    manifest.append_point(path, victim)
    with pytest.raises(CampaignError, match=f"point {victim.id} .* no result"):
        load_point_results(tmp_path, Manifest.load(path))


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


def _tear_final_line(path: Path) -> bytes:
    """Cut the log mid-way through its final line, as a SIGKILL mid-append
    would; returns the torn bytes now on disk."""
    data = path.read_bytes()
    final = data.rstrip(b"\n").rfind(b"\n") + 1
    torn = data[: (final + len(data)) // 2]
    path.write_bytes(torn)
    return torn


def test_manifest_is_a_log_of_point_transitions(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    lines = manifest_path(tmp_path).read_text().splitlines()
    # the document, running + done per point, then the run's faults
    assert len(lines) == 1 + 2 * 2 + 1
    records = [json.loads(line) for line in lines]
    assert [p["status"] for p in records[0]["points"]] == [PENDING, PENDING]
    assert [r["point"]["status"] for r in records[1:-1]] == [
        "running", DONE, "running", DONE,
    ]
    assert set(records[-1]) == {"faults", "sha256"}
    assert Manifest.load(manifest_path(tmp_path)).complete


def test_fresh_run_replaces_an_old_log_whole(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    path = manifest_path(tmp_path)
    first = path.read_bytes()
    run_campaign(spec, out_dir=tmp_path)  # not --resume: a fresh log
    assert len(path.read_bytes().splitlines()) == len(first.splitlines())
    assert Manifest.load(path).complete
    assert not list(tmp_path.glob("manifest*.bak"))


def test_torn_final_line_is_dropped(tmp_path, recwarn):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    # tear the second point's "done" line: the log then reads "running"
    path.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])

    manifest = Manifest.load(path)
    assert [p.status for p in manifest.points] == [DONE, "running"]
    assert manifest.faults == {}
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_resume_after_torn_manifest_skips_done_points(tmp_path, recwarn):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    _tear_final_line(manifest_path(tmp_path))  # the faults line

    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert summary.executed == 0
    assert summary.skipped == 2
    assert summary.failed == 0
    reloaded = Manifest.load(manifest_path(tmp_path))
    assert reloaded.complete and reloaded.faults == summary.manifest.faults != {}
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_resume_adds_its_pool_counters_to_the_logged_faults(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    path = manifest_path(tmp_path)
    manifest = Manifest.load(path)
    # The interrupted run rebuilt its pool once and left a point running.
    manifest.faults = {"pool_rebuilds": 1, "worker_kills": 2,
                       "degraded_to_serial": True}
    manifest.append_faults(path)
    manifest.points[1].status = "running"
    manifest.points[1].result = None
    manifest.append_point(path, manifest.points[1])

    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert (summary.executed, summary.skipped) == (1, 1)
    faults = Manifest.load(path).faults
    assert faults == summary.manifest.faults
    assert faults["pool_rebuilds"] >= 1 and faults["worker_kills"] >= 2
    assert faults["degraded_to_serial"] is True


def test_append_after_torn_tail_survives_the_next_load(tmp_path):
    spec = small_spec()
    run_campaign(spec, out_dir=tmp_path)
    path = manifest_path(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    # SIGKILL mid-append of the second point's "done" line
    path.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])

    summary = run_campaign(spec, out_dir=tmp_path, resume=True)
    assert (summary.executed, summary.skipped) == (1, 1)
    reloaded = Manifest.load(path)
    assert reloaded.complete
    assert reloaded.faults == summary.manifest.faults != {}


def test_status_read_of_a_torn_log_writes_nothing(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    torn = _tear_final_line(path)
    before = sorted(p.name for p in tmp_path.iterdir())

    manifest = Manifest.load(path)
    assert manifest.count(DONE) == 2  # the valid prefix
    assert manifest.status_document()["done"] == 2
    assert path.read_bytes() == torn  # the reader left the log alone
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_midfile_corruption_keeps_the_prefix_and_warns(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"done"', b'"DONE"')  # checksum now wrong
    path.write_bytes(b"".join(lines))

    with pytest.warns(RuntimeWarning, match="dropping this line"):
        manifest = Manifest.load(path)
    assert [p.status for p in manifest.points] == ["running", PENDING]


def test_garbled_first_line_is_a_hard_error(tmp_path):
    run_campaign(small_spec(), out_dir=tmp_path)
    path = manifest_path(tmp_path)
    assert Manifest.load(path).complete  # the later lines fold to done
    data = path.read_bytes()
    path.write_bytes(b"{garbled" + data[40:])  # every later line intact

    with pytest.warns(RuntimeWarning):
        with pytest.raises(ManifestError, match=str(path)):
            Manifest.load(path)
        with pytest.raises(ManifestError, match="line 1"):
            run_campaign(small_spec(), out_dir=tmp_path, resume=True)


def test_write_shape_is_one_save_and_a_fixed_cost_per_point(tmp_path, monkeypatch):
    """A run saves the whole document once; each point then costs a fixed
    number of fsyncs (running line 1, done line 1, which carries the
    point's results), and no byte of the manifest is ever rewritten."""
    import os

    from repro.campaign import manifest as manifest_module

    per_point_fsyncs = 2
    counts = {"saves": 0, "fsyncs": 0, "bytes": 0}
    save, fsync = Manifest.save, os.fsync
    write_text = manifest_module.atomic_write_text
    append_line = manifest_module.durable_append_line

    def counted_save(self, path):
        counts["saves"] += 1
        save(self, path)

    def counted_fsync(fd):
        counts["fsyncs"] += 1
        fsync(fd)

    def counted_write(path, text, **kwargs):
        counts["bytes"] += len(text.encode())
        write_text(path, text, **kwargs)

    def counted_append(path, text):
        counts["bytes"] += len(text.encode()) + 1  # the newline it adds
        append_line(path, text)

    monkeypatch.setattr(Manifest, "save", counted_save)
    monkeypatch.setattr(os, "fsync", counted_fsync)
    monkeypatch.setattr(manifest_module, "atomic_write_text", counted_write)
    monkeypatch.setattr(manifest_module, "durable_append_line", counted_append)

    def shape(n_points):
        values = list(range(n_points))
        spec = spec_from_dict({
            "campaign": {"name": f"shape{n_points}", "builder": "nav_pairs",
                         "seeds": [1], "duration_s": 0.02},
            "params": {"transport": "udp"},
            "zip": {"alpha": values, "nav_inflation_us": [100.0 * v for v in values]},
        })
        out = tmp_path / str(n_points)
        for key in counts:
            counts[key] = 0
        run_campaign(spec, out_dir=out, use_cache=False)
        assert counts["bytes"] == manifest_path(out).stat().st_size
        return dict(counts)

    small, large = shape(2), shape(6)
    assert small["saves"] == large["saves"] == 1
    assert large["fsyncs"] - small["fsyncs"] == per_point_fsyncs * (6 - 2)


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
    data = Manifest.load(path).to_dict()
    data.pop("faults", None)
    data.pop("telemetry", None)
    for point in data["points"]:
        point.pop("retries", None)
        point.pop("last_failure", None)
    path.write_text(checksummed_line(data) + "\n")

    loaded = Manifest.load(path)
    assert loaded.faults == {}
    assert all(p.retries == 0 and p.last_failure is None for p in loaded.points)
