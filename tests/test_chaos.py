"""Chaos harness acceptance: sabotaged campaigns finish with identical metrics.

The issue's bar: kill at least one worker and corrupt at least one cache
entry mid-campaign, and the campaign must complete with metrics bit-identical
to a fault-free run while the manifest records the retries.  The heavy
real-simulator version of this is the ``quick`` profile (also the CI
``chaos-smoke`` job); the unit-style tests here use the no-simulator
``chaos_sleeper`` builder so each phase runs in a couple of seconds.
"""

from __future__ import annotations

import warnings

import pytest

from repro.campaign import Manifest, manifest_path
from repro.faults.chaos import PROFILES, ChaosProfile, run_chaos
from repro.runtime import RetryPolicy

TOY_SPEC = {
    "campaign": {
        "name": "chaos-toy",
        "builder": "chaos_sleeper",
        "seeds": [1, 2, 3],
        "duration_s": 0.1,
    },
    "params": {"work_s": 0.15},
    "sweep": {"point": [0, 1]},
}

TOY = ChaosProfile(
    name="toy",
    spec=TOY_SPEC,
    jobs=2,
    worker_kills=1,
    cache_truncations=1,
    retry=RetryPolicy(
        max_attempts=3, backoff_base_s=0.02, backoff_max_s=0.1, max_pool_rebuilds=8
    ),
)


@pytest.fixture()
def quiet():
    """Quarantine warnings during heal are the harness working as intended."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def test_profiles_registry_has_quick_and_full():
    assert "quick" in PROFILES and "full" in PROFILES
    assert PROFILES["full"].hang and PROFILES["full"].retry.timeout_s is not None


def test_unknown_profile_name_raises():
    with pytest.raises(KeyError, match="unknown chaos profile"):
        run_chaos("nope", "/tmp/never-used")


def test_toy_campaign_survives_kill_and_corruption(tmp_path, quiet):
    report = run_chaos(TOY, tmp_path, progress=lambda _m: None)
    assert report.problems == []
    assert report.ok
    assert report.identical
    assert report.workers_killed >= 1
    assert report.cache_entries_truncated >= 1
    assert report.cache_entries_quarantined >= 1
    assert report.retries_recorded >= 1  # the manifest records the retries
    assert report.manifest_recovered is True
    assert report.points == 2
    # the summary is printable and names the verdict
    text = "\n".join(report.summary_lines())
    assert "chaos[toy] OK" in text


def test_toy_artifacts_land_under_root(tmp_path, quiet):
    report = run_chaos(TOY, tmp_path)
    assert report.ok
    for phase in ("reference", "chaos", "healed"):
        manifest = Manifest.load(manifest_path(tmp_path / phase))
        assert {p.status for p in manifest.points} == {"done"}
    chaos_manifest = Manifest.load(manifest_path(tmp_path / "chaos"))
    assert sum(p.retries for p in chaos_manifest.points) >= 1
    # the sabotaged entries were moved aside, not silently deleted
    quarantine = tmp_path / "cache-chaos" / "quarantine"
    assert quarantine.exists() and any(quarantine.iterdir())


def test_hang_injection_heals_via_watchdog(tmp_path, quiet):
    profile = ChaosProfile(
        name="toy-hang",
        spec={
            "campaign": {
                "name": "chaos-toy-hang",
                "builder": "chaos_sleeper",
                "seeds": [1, 2],
                "duration_s": 0.1,
            },
            "params": {"work_s": 0.05},
            "sweep": {"point": [0, 1]},
        },
        jobs=2,
        worker_kills=0,
        cache_truncations=0,
        recover_manifest=False,
        hang=True,
        retry=RetryPolicy(
            max_attempts=3,
            timeout_s=1.0,
            backoff_base_s=0.02,
            backoff_max_s=0.1,
            max_pool_rebuilds=8,
        ),
    )
    report = run_chaos(profile, tmp_path)
    assert report.problems == []
    assert report.identical
    assert report.watchdog_kills >= 1  # every first attempt parked and was shot
    assert report.manifest_recovered is None  # phase disabled for this profile
