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
from repro.mac.frames import Frame, FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig, use_channel
from repro.phy.error import BitErrorModel
from repro.phy.medium import SinrMedium
from repro.phy.params import dot11a, dot11b
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
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


# ------------------------------------------------------- capture oracle --

#: Two transmitters A and B, one receiver R at the origin, on the x axis:
#: A at ``d_a`` m, B at ``-d_b`` m, both at unit power, path-loss exponent
#: 4, no ranges (everything is decodable), noise floor 1e-10.  The margin
#: column is the SINR threshold the frame kind gets on 802.11b: a data
#: frame at 11 Mbps needs 10 x 11/1 = 110, an ACK at the 1 Mbps basic rate
#: the bare capture margin (10, or 4 when the medium sets one).  Each row
#: sits just inside or just outside that margin: (d_b / d_a)^4 against it.
#:
#:   kind   margin   d_a    d_b    (d_b/d_a)^4   A captures R?
CAPTURE_LINKS = [
    ("DATA", None, 10.0, 33.0),  #   118.6       yes
    ("DATA", None, 10.0, 32.0),  #   104.9       no
    ("DATA", None, 20.0, 66.0),  #   118.6       yes
    ("ACK", None, 10.0, 18.0),  #     10.5       yes
    ("ACK", None, 10.0, 17.0),  #      8.35      no
    ("ACK", 4.0, 10.0, 14.2),  #      4.07      yes
    ("ACK", 4.0, 10.0, 14.1),  #      3.95      no
    ("ACK", 4.0, 30.0, 30.0),  #      1         no (equal power: both lost)
]
NOISE_FLOOR = 1e-10


def _frame(kind, src):
    if kind == "DATA":
        return Frame(FrameKind.DATA, src, "R", 314.0, 1052)
    return Frame(FrameKind.ACK, src, "R", 0.0, 14)


def _captures(phy, kind, margin, rss, interference):
    """The closed form: ``rss >= sinr_threshold(rate, margin) * (N + I)``."""
    rate = phy.data_rate if kind == "DATA" else phy.basic_rate
    return rss >= phy.sinr_threshold(rate, margin) * (NOISE_FLOOR + interference)


@pytest.mark.parametrize("a_first", [True, False], ids=["A_first", "B_first"])
@pytest.mark.parametrize("link", CAPTURE_LINKS, ids=lambda link: "-".join(map(str, link)))
def test_two_transmitter_capture_matches_the_closed_form(link, a_first):
    """Whichever frame arrives first, R decodes a frame iff its power clears
    its SINR margin over the noise floor plus the other frame's power."""

    class Recorder:
        def __init__(self):
            self.received = []

        def phy_busy(self):
            pass

        phy_idle = phy_tx_done = phy_busy

        def phy_receive(self, frame, corrupted, addr_ok, rssi_db):
            self.received.append((frame.src, corrupted))

    kind, margin, d_a, d_b = link
    sim = Simulator()
    phy = dot11b()
    medium = SinrMedium(
        sim,
        phy,
        RngStreams(1).stream("phy.medium"),
        error_model=BitErrorModel(),
        propagation_delay=False,
        noise_floor=NOISE_FLOOR,
        capture_margin=margin,
    )
    receiver = medium.radio_class(medium, "R", (0.0, 0.0))
    a = medium.radio_class(medium, "A", (d_a, 0.0))
    b = medium.radio_class(medium, "B", (-d_b, 0.0))
    for radio in (receiver, a, b):
        radio.mac = Recorder()
    first, second = (a, b) if a_first else (b, a)
    sim.call_at(0.0, first.transmit, _frame(kind, first.name), 957.0)
    sim.call_at(100.0, second.transmit, _frame(kind, second.name), 957.0)
    sim.run()

    rss_a, rss_b = 1.0 / d_a**4, 1.0 / d_b**4
    expected = {
        "A": _captures(phy, kind, margin, rss_a, rss_b),
        "B": _captures(phy, kind, margin, rss_b, rss_a),
    }
    decoded = {src: not corrupted for src, corrupted in receiver.mac.received}
    assert {src: decoded.get(src, False) for src in "AB"} == expected


def test_capture_links_sit_on_both_sides_of_each_margin():
    phy = dot11b()
    sides = {}
    for kind, margin, d_a, d_b in CAPTURE_LINKS:
        rss_a, rss_b = 1.0 / d_a**4, 1.0 / d_b**4
        sides.setdefault((kind, margin), set()).add(
            _captures(phy, kind, margin, rss_a, rss_b)
        )
    assert all(outcomes == {True, False} for outcomes in sides.values())


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


def test_dense_hotspot_channel_none_inherits_the_ambient_model():
    from repro.campaign.builders import dense_hotspot_sinr

    with use_channel("pairwise"):
        inherited = dense_hotspot_sinr(1, 0.05, channel=None, cells=1)
        pinned = dense_hotspot_sinr(1, 0.05, channel="pairwise", cells=1)
    assert inherited == pinned
    assert inherited["goodput_total"] > 0
