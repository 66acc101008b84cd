"""Tests for the experiment registry and a sample of quick experiment runs."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, get
from repro.experiments.common import RunSettings
from repro.stats import ExperimentResult


def test_registry_covers_every_paper_artifact():
    expected = {f"fig{i}" for i in list(range(1, 20)) + [21, 22, 23, 24]}
    expected |= {f"table{i}" for i in range(1, 10)}
    # fig20 is the paper's detection flow chart (no data to reproduce).
    assert set(ALL_EXPERIMENTS) == expected


def test_get_unknown_experiment_raises():
    with pytest.raises(KeyError):
        get("fig99")


def test_every_experiment_is_importable_and_callable():
    for experiment_id in ALL_EXPERIMENTS:
        run = get(experiment_id)
        assert callable(run)


@pytest.mark.parametrize("experiment_id", ["table1", "table3", "fig21", "fig22"])
def test_cheap_experiments_produce_wellformed_rows(experiment_id):
    result = get(experiment_id)(RunSettings.quick())
    assert isinstance(result, ExperimentResult)
    assert result.rows, experiment_id
    for row in result.rows:
        assert set(result.columns) <= set(row)
    text = result.to_text()
    assert result.name in text


def test_quick_mode_smaller_than_full_settings():
    from repro.experiments.common import RunSettings

    quick = RunSettings.quick()
    full = RunSettings()
    assert quick.duration_s < full.duration_s
    assert len(quick.seeds) < len(full.seeds)
    assert RunSettings.for_mode(True) == quick
    assert RunSettings.for_mode(False) == full
