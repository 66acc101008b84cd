"""The SINR interference medium: kernel properties and equivalence gates.

The channel-model seam makes two promises (DESIGN.md §15):

* the ``pairwise`` model — including when selected through the ambient
  :func:`~repro.phy.channel.use_channel` — replays every committed golden
  trace byte for byte;
* the ``sinr`` model reduces to the pairwise decodability decision when no
  interference is present, and its per-rate threshold arithmetic is exact
  and monotonic (hypothesis pins below).

Scenario-level checks close the loop: the hidden-terminal triangle shows
the classic RTS/CTS recovery, and the dense hotspot grid shows the two
models genuinely diverging once aggregate cross-cell interference matters.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaign.builders import hidden_node
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig, use_channel
from repro.phy.params import dot11a, dot11b
from repro.stats.trace import FrameTracer

GOLDEN_DIR = Path(__file__).parent / "golden"

finite = st.floats(
    min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
)


# --------------------------------------------------------- kernel pins ----


@given(rate=st.sampled_from([1e6, 2e6, 5.5e6, 11e6]))
def test_sinr_threshold_floors_at_the_capture_threshold(rate):
    phy = dot11b()
    assert phy.sinr_threshold(rate) >= phy.capture_threshold


@given(margin=st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_sinr_threshold_is_monotonic_in_rate(margin):
    phy = dot11b()
    rates = sorted({1e6, 2e6, 5.5e6, 11e6})
    thresholds = [phy.sinr_threshold(rate, margin) for rate in rates]
    assert thresholds == sorted(thresholds)
    # Control frames fly at the basic rate: bare margin, no rate scaling.
    assert phy.sinr_threshold(phy.basic_rate, margin) == margin


def test_sinr_threshold_matches_the_rate_ratio():
    phy = dot11b()  # data 11 Mbps over basic 1 Mbps
    assert phy.sinr_threshold() == phy.capture_threshold * 11.0
    phy_a = dot11a()  # data and basic rate scale together here
    assert phy_a.sinr_threshold(phy_a.basic_rate) == phy_a.capture_threshold


@given(
    rss=finite,
    threshold=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    noise_floor=st.floats(min_value=1e-12, max_value=1e-3, allow_nan=False),
    powers=st.lists(finite, min_size=0, max_size=6),
)
def test_sinr_decision_is_monotonic_in_interference(rss, threshold, noise_floor, powers):
    """Adding interference power can only flip a decision from pass to fail.

    The sim decides ``rss >= threshold * (noise + interference)`` with a
    left-to-right sum; prefix sums are monotonically non-decreasing, so the
    decision is monotonically non-increasing along any arrival order.
    """
    decisions = []
    interference = 0.0
    for power in [0.0] + powers:
        interference += power
        decisions.append(rss >= threshold * (noise_floor + interference))
    for earlier, later in zip(decisions, decisions[1:]):
        assert earlier or not later  # once False, never True again


# ------------------------------------------------- equivalence contracts --


def _single_flow_trace(channel: ChannelConfig) -> bytes:
    import json

    s = Scenario(seed=5, channel=channel)
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("R0", position=(40.0, 0.0))
    tracer = FrameTracer(s.medium)
    src, _sink = s.udp_flow("S0", "R0")
    src.start()
    s.run(0.1)
    return "\n".join(
        json.dumps(record.to_dict(), sort_keys=True) for record in tracer.records
    ).encode()


def test_zero_interference_sinr_reduces_to_pairwise():
    """One flow, no overlap: the SINR margin must reproduce the pairwise
    trace byte for byte (noise floor sits far below the decode threshold)."""
    sinr = _single_flow_trace(ChannelConfig(model="sinr", ranges=(55.0, 99.0)))
    pairwise = _single_flow_trace(
        ChannelConfig(model="pairwise", ranges=(55.0, 99.0))
    )
    assert sinr == pairwise
    assert sinr  # a silent empty trace would vacuously pass


def test_ambient_pairwise_replays_every_committed_golden(tmp_path):
    """``ChannelConfig(model="pairwise")`` selected ambiently must replay the
    full committed golden set byte for byte — the scenarios that pin
    ``model="sinr"`` explicitly override the ambient and match their own
    goldens, so one sweep covers both halves of the §15 contract."""
    from repro.perf.golden import GOLDEN_TRACE_RUNS, capture_trace, trace_filename

    with use_channel(ChannelConfig(model="pairwise")):
        for name in sorted(GOLDEN_TRACE_RUNS):
            replay = tmp_path / trace_filename(name)
            capture_trace(name, replay)
            golden = (GOLDEN_DIR / trace_filename(name)).read_bytes()
            assert replay.read_bytes() == golden, f"{name} diverged"


# ----------------------------------------------------- scenario behavior --


def test_hidden_triangle_collapses_without_rts_and_recovers_with_it():
    off = hidden_node(1, 0.3, rts=False)
    on = hidden_node(1, 0.3, rts=True)
    assert off["rts_S0"] == off["rts_S1"] == 0.0
    assert on["rts_S0"] > 0 and on["rts_S1"] > 0
    # The acceptance shape: severalfold total-goodput recovery.
    assert on["goodput_total"] > 2.0 * off["goodput_total"]
    # Blind overlap shows up as escalated contention windows.
    assert off["cw_S0"] > on["cw_S0"]


def test_dense_hotspot_grid_diverges_between_the_models():
    """At 72 m cell spacing the aggregate interference at each AP differs
    from the pairwise capture approximation — equal seeds must produce
    measurably different goodput, or the SINR path is not actually wired."""
    from repro.campaign.builders import get_builder

    builder = get_builder("dense_hotspot_sinr")
    sinr = builder(1, 0.1, channel="sinr")
    pairwise = builder(1, 0.1, channel="pairwise")
    assert sinr != pairwise
    assert sinr["goodput_total"] > 0 and pairwise["goodput_total"] > 0
