"""Unit tests for result containers and statistics helpers."""

import random

import pytest

from repro.experiments.common import seed_job
from repro.mac.stats import MacStats
from repro.stats import ExperimentResult, format_table, median, median_over_seeds

OUTCOMES = {1: {"x": 1.0, "y": 10.0}, 2: {"x": 3.0, "y": 30.0}, 3: {"x": 2.0, "y": 20.0}}


def outcome_runner(seed: int) -> dict[str, float]:
    return OUTCOMES[seed]


def inconsistent_runner(seed: int) -> dict[str, float]:
    return {"x": 1.0} if seed == 1 else {"y": 2.0}


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        median([])


def test_median_over_seeds():
    result = median_over_seeds(seed_job(outcome_runner), [1, 2, 3])
    assert result == {"x": 2.0, "y": 20.0}


def test_median_over_seeds_validates_inputs():
    with pytest.raises(ValueError):
        median_over_seeds(seed_job(outcome_runner), [])
    with pytest.raises(ValueError):
        median_over_seeds(seed_job(inconsistent_runner), [1, 2])


def test_experiment_result_rows_and_series():
    result = ExperimentResult("T", "desc", columns=["a", "b"])
    result.add_row(a=1, b=2.0)
    result.add_row(a=2, b=4.0)
    assert result.series("a", "b") == [(1, 2.0), (2, 4.0)]
    assert result.column("b") == [2.0, 4.0]


def test_experiment_result_rejects_missing_columns():
    result = ExperimentResult("T", "desc", columns=["a", "b"])
    with pytest.raises(ValueError):
        result.add_row(a=1)


def test_experiment_result_to_text():
    result = ExperimentResult("T", "desc", columns=["a"])
    result.add_row(a=1.23456)
    text = result.to_text()
    assert "== T ==" in text
    assert "1.235" in text  # 4 significant digits


def test_format_table_alignment():
    out = format_table(["col", "x"], [["a", "1"], ["bb", "22"]])
    lines = out.splitlines()
    assert lines[0].startswith("col")
    assert len(lines) == 4


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_mac_stats_cw_accounting():
    stats = MacStats()
    for cw in (31, 31, 63):
        stats.sample_cw(cw)
    assert stats.average_cw == pytest.approx((31 + 31 + 63) / 3)
    dist = stats.cw_distribution()
    assert dist[31] == pytest.approx(2 / 3)
    assert dist[63] == pytest.approx(1 / 3)


def test_mac_stats_empty():
    stats = MacStats()
    assert stats.average_cw == 0.0
    assert stats.cw_distribution() == {}
    assert stats.mac_loss_rate("x") == 0.0


def test_mac_loss_rate():
    stats = MacStats()
    stats.data_attempts_by_dst["r"] = 10
    stats.ack_failures_by_dst["r"] = 3
    assert stats.mac_loss_rate("r") == 0.3


def test_mac_stats_cw_record_matches_the_sampled_sequence():
    """average_cw and cw_distribution, read off the one CW histogram, equal
    the mean and the empirical distribution of the sampled sequence."""
    rng = random.Random(4)
    samples = [rng.choice((15, 31, 63, 127, 255, 511, 1023)) for _ in range(5000)]
    stats = MacStats()
    for cw in samples:
        stats.sample_cw(cw)
    assert stats.average_cw == sum(samples) / len(samples)
    reference = {cw: samples.count(cw) / len(samples) for cw in sorted(set(samples))}
    assert stats.cw_distribution() == reference
    assert list(stats.cw_distribution()) == sorted(reference)
