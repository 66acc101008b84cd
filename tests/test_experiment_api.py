"""The unified experiment API: RunSettings, the decorator, and the registry.

Every experiment module exposes ``run(settings: RunSettings | None = None)
-> ExperimentResult`` via the :func:`repro.experiments.common.experiment_api`
decorator.  The experiment registry
(:class:`repro.experiments.ExperimentEntry`) binds ids to paper artifacts,
runners, tags and campaign builders.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    REGISTRY,
    entries,
    get,
    get_entry,
)
from repro.experiments.common import RunSettings, experiment_api
from repro.stats.summary import ExperimentResult


@experiment_api
def _toy_run(settings: RunSettings) -> ExperimentResult:
    """A decorated runner cheap enough to call many times in tests."""
    result = ExperimentResult(
        name="toy", description="api test", columns=["mode", "seeds"]
    )
    result.add_row(mode=settings.mode, seeds=len(settings.seeds))
    if settings.telemetry:
        # Touch the ambient registry the decorator installed.
        from repro.obs import current_registry

        current_registry().inc("sim.toy.runs")
    return result


# ------------------------------------------------------------- RunSettings --


def test_run_settings_defaults_and_modes():
    full = RunSettings()
    assert full.mode == "full" and not full.is_quick and not full.telemetry
    quick = RunSettings.quick()
    assert quick.is_quick and quick.duration_s < full.duration_s
    assert RunSettings.for_mode(True) == quick
    assert RunSettings.for_mode(False) == full


def test_run_settings_replace_and_validation():
    tweaked = RunSettings().replace(telemetry=True, seeds=[9, 10])
    assert tweaked.telemetry and tweaked.seeds == (9, 10)
    with pytest.raises(ValueError, match="mode"):
        RunSettings(mode="fast")


# ------------------------------------------------------------- the wrapper --


def test_run_accepts_settings_object():
    result = _toy_run(RunSettings.quick())
    assert result.rows[0]["mode"] == "quick"
    assert result.telemetry is None


def test_run_without_arguments_means_full():
    assert _toy_run().rows[0]["mode"] == "full"


def test_telemetry_setting_attaches_snapshot():
    result = _toy_run(RunSettings.quick().replace(telemetry=True))
    assert result.telemetry is not None
    assert result.telemetry.counters["sim.toy.runs"] == 1
    assert result.telemetry.meta["experiment"] == "test_experiment_api"


def test_every_registered_runner_is_decorated():
    for experiment_id in ALL_EXPERIMENTS:
        runner = get(experiment_id)
        assert hasattr(runner, "__wrapped__"), (
            f"{experiment_id}.run is not wrapped by experiment_api"
        )


# ---------------------------------------------------------------- registry --


def test_registry_entries_are_complete_and_ordered():
    extensions = [e for e in REGISTRY.values() if e.extension]
    assert len(extensions) >= 4  # autorate, sender_baseline, bursty, crash
    assert len(REGISTRY) == len(ALL_EXPERIMENTS) + len(extensions)
    for experiment_id, entry in REGISTRY.items():
        assert entry.id == experiment_id
        assert entry.artifact and entry.title and entry.tags
        assert entry.module, f"{experiment_id} has no module"


def test_get_entry_unknown_id_lists_known():
    with pytest.raises(KeyError, match="fig1"):
        get_entry("nope")


def test_entries_filter_by_tag():
    nav = entries(tag="nav")
    assert nav and all("nav" in e.tags for e in nav)
    assert entries(tag="no_such_tag") == []


def test_entry_default_settings_resolves_runner():
    entry = get_entry("fig1")
    assert entry.artifact == "Figure 1"
    assert entry.builder == "nav_pairs"
    assert isinstance(entry.default_settings(), RunSettings)
    assert entry.runner is get("fig1")


def test_builder_for_experiment_resolves_through_registry():
    from repro.campaign.builders import builder_for_experiment, get_builder

    assert builder_for_experiment("fig1") is get_builder("nav_pairs")
    with pytest.raises(ValueError, match="analytic or testbed"):
        builder_for_experiment("table1")


# ------------------------------------------------------------- PHY profiles --


def test_experiments_and_campaigns_share_phy_profiles():
    """One lookup table serves both call paths (no drift possible)."""
    from repro.campaign.spec import SpecError, spec_from_dict
    from repro.phy.profiles import PHY_PROFILES, profile_names, resolve_phy

    assert profile_names() == sorted(PHY_PROFILES)
    for name in profile_names():
        # The experiments' resolver accepts the name...
        params = resolve_phy(name)
        assert params is not None
        # ...and so does campaign spec validation.
        spec_from_dict(
            {
                "campaign": {
                    "name": "phy_ok",
                    "builder": "nav_pairs",
                    "seeds": [1],
                    "duration_s": 0.1,
                },
                "params": {"phy": name, "transport": "udp"},
                "sweep": {"nav_inflation_us": [0.0]},
            },
            source="<test>",
        )
    with pytest.raises(SpecError, match="unknown PHY profile"):
        spec_from_dict(
            {
                "campaign": {
                    "name": "phy_bad",
                    "builder": "nav_pairs",
                    "seeds": [1],
                    "duration_s": 0.1,
                },
                "params": {"phy": "dot11z"},
                "sweep": {"nav_inflation_us": [0.0]},
            },
            source="<test>",
        )


# ------------------------------------------------------- result round-trip --


def test_experiment_result_json_round_trip():
    result = ExperimentResult(
        name="Figure X", description="round trip", columns=["a", "b"]
    )
    result.add_row(a=1, b=2.5)
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.name == result.name
    assert restored.rows == result.rows
    assert restored.schema_version == result.schema_version
    assert restored.telemetry is None


def test_experiment_result_round_trips_telemetry():
    result = _toy_run(RunSettings.quick().replace(telemetry=True))
    restored = ExperimentResult.from_json(result.to_json(indent=2))
    assert restored.telemetry is not None
    assert restored.telemetry.to_dict() == result.telemetry.to_dict()


def test_experiment_result_accepts_schema_v1():
    v1 = (
        '{"schema_version": 1, "name": "n", "description": "d", '
        '"columns": ["x"], "rows": [{"x": 1}]}'
    )
    restored = ExperimentResult.from_json(v1)
    assert restored.rows == [{"x": 1}]
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentResult.from_json('{"schema_version": 99, "rows": []}')


# ------------------------------------------------------------- public API --


def test_package_reexports_public_api():
    import repro

    for name in (
        "Scenario",
        "RunSettings",
        "ExperimentResult",
        "MetricsRegistry",
        "TelemetrySnapshot",
        "FrameTracer",
        "capture",
        "resolve_phy",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
