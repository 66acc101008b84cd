"""Unit tests for the frame loss model."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.error import BitErrorModel, frame_error_rate, set_ber_all_pairs


def test_zero_ber_is_lossless():
    assert frame_error_rate(0.0, 1024) == 0.0


def test_table3_calibration():
    """The mapping must reproduce the paper's Table III for control frames."""
    assert frame_error_rate(2e-4, 14) == pytest.approx(7.519e-3, rel=0.02)
    assert frame_error_rate(2e-4, 20) == pytest.approx(8.762e-3, rel=0.02)
    assert frame_error_rate(2e-4, 1092) == pytest.approx(2.033e-1, rel=0.05)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        frame_error_rate(-0.1, 100)
    with pytest.raises(ValueError):
        frame_error_rate(1.5, 100)
    with pytest.raises(ValueError):
        frame_error_rate(0.1, -1)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_fer_is_a_probability(ber, size):
    fer = frame_error_rate(ber, size)
    assert 0.0 <= fer <= 1.0


@given(
    st.floats(min_value=1e-7, max_value=1e-2),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=2000),
)
def test_property_fer_monotonic_in_size(ber, a, b):
    small, large = min(a, b), max(a, b)
    assert frame_error_rate(ber, small) <= frame_error_rate(ber, large)


def test_default_and_per_link_ber():
    model = BitErrorModel(default_ber=0.0)
    model.set_ber("a", "b", 1.0)
    rng = random.Random(1)
    assert model.is_corrupted("a", "b", 100, True, rng)
    assert not model.is_corrupted("b", "a", 100, True, rng)  # default 0


def test_symmetric_ber_helper():
    model = BitErrorModel()
    model.set_ber_symmetric("a", "b", 0.5)
    assert model.ber("a", "b") == 0.5
    assert model.ber("b", "a") == 0.5


def test_direct_data_fer_spares_control_frames():
    model = BitErrorModel()
    model.set_data_fer("a", "b", 1.0)
    rng = random.Random(1)
    assert model.is_corrupted("a", "b", 1024, True, rng)  # data always lost
    assert not model.is_corrupted("a", "b", 14, False, rng)  # ACK clean


def test_invalid_rates_rejected():
    model = BitErrorModel()
    with pytest.raises(ValueError):
        model.set_ber("a", "b", 1.5)
    with pytest.raises(ValueError):
        model.set_data_fer("a", "b", -0.1)


def test_set_ber_all_pairs_covers_every_directed_link():
    model = BitErrorModel()
    set_ber_all_pairs(model, ["a", "b", "c"], 0.25)
    for src in "abc":
        for dst in "abc":
            if src != dst:
                assert model.ber(src, dst) == 0.25
    assert model.ber("a", "a") == 0.0  # self-links untouched


def test_monte_carlo_matches_analytic_fer():
    model = BitErrorModel()
    model.set_ber("a", "b", 2e-4)
    rng = random.Random(99)
    n = 20_000
    hits = sum(model.is_corrupted("a", "b", 1092, True, rng) for _ in range(n))
    assert hits / n == pytest.approx(frame_error_rate(2e-4, 1092), rel=0.1)


# ------------------------------------------ fast-path lookup-table pinning --


class _NoDrawRng:
    """Sentinel RNG that fails the test if anything draws from it."""

    def random(self):  # pragma: no cover - reaching this is the failure
        raise AssertionError("fast path must not draw from the RNG")


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=4096),
)
def test_property_cached_fer_is_bit_identical_to_formula(ber, size):
    from repro.phy.error import frame_error_rate_formula

    assert frame_error_rate(ber, size) == frame_error_rate_formula(ber, size)


def test_trivial_flag_tracks_every_loss_table():
    model = BitErrorModel()
    assert model.trivial
    model.set_ber("a", "b", 0.1)
    assert not model.trivial
    assert not BitErrorModel(default_ber=1e-4).trivial
    fer_model = BitErrorModel()
    fer_model.set_data_fer("a", "b", 0.5)
    assert not fer_model.trivial
    rate_model = BitErrorModel()
    rate_model.set_rate_profile("a", "b", {11.0: 1e-3})
    assert not rate_model.trivial


def test_trivial_model_never_corrupts_nor_draws():
    model = BitErrorModel()
    assert model.trivial
    assert not model.is_corrupted("a", "b", 1024, True, _NoDrawRng())


def test_zero_ber_link_skips_the_rng_even_when_not_trivial():
    """Links with no loss never consume randomness (draw-sequence fence)."""
    model = BitErrorModel()
    model.set_ber("a", "b", 0.5)
    assert not model.is_corrupted("x", "y", 1024, True, _NoDrawRng())


# -------------------------------------------- corruption plan <-> roll -----


link_configs = st.sampled_from(
    [
        ("none", None),
        ("default_ber", 1e-4),
        ("link_ber", 0.0),
        ("link_ber", 2e-4),
        ("link_ber", 1.0),
        ("data_fer", 0.0),  # explicit 0.0 must still consume one uniform
        ("data_fer", 0.5),
        ("rate_profile", {2.0: 1e-5, 11.0: 5e-3}),
    ]
)


def _expected_plan(kind, value, size, is_data, rate):
    """The paper's loss rules, written out independently of the model."""
    if kind == "data_fer":
        return value if is_data else None
    if kind == "rate_profile":
        ber = value[rate] if rate in value else value[min(value)]
    else:
        ber = 0.0 if kind == "none" else value
    return None if ber <= 0.0 else frame_error_rate(ber, size)


@given(
    config=link_configs,
    size=st.integers(min_value=0, max_value=4096),
    is_data=st.booleans(),
    rate=st.sampled_from([None, 2.0, 11.0]),
    roll_seed=st.integers(min_value=0, max_value=2**16),
)
def test_corruption_plan_is_the_roll_is_corrupted_makes(
    config, size, is_data, rate, roll_seed
):
    """plan + one conditional draw == is_corrupted, including draw *count*.

    A roll that consumed a uniform where the plan says none is needed (or
    vice versa) would desynchronize every later corruption roll in the run.
    The final assertion — both generators produce the same next value —
    pins the consumed-draw count, not just the verdict.
    """
    kind, value = config
    model = BitErrorModel()
    if kind == "default_ber":
        model = BitErrorModel(default_ber=value)
    elif kind == "link_ber":
        model.set_ber("S", "R", value)
    elif kind == "data_fer":
        model.set_data_fer("S", "R", value)
    elif kind == "rate_profile":
        model.set_rate_profile("S", "R", value)

    plan = model.corruption_plan("S", "R", size, is_data, rate)
    assert plan == _expected_plan(kind, value, size, is_data, rate)
    roll_rng = random.Random(roll_seed)
    plan_rng = random.Random(roll_seed)
    verdict = model.is_corrupted("S", "R", size, is_data, roll_rng, rate)
    plan_verdict = False if plan is None else plan_rng.random() < plan
    assert plan_verdict == verdict
    assert roll_rng.random() == plan_rng.random(), "draw counts diverged"
