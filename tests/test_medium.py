"""Unit tests for the broadcast medium: ranges, capture, collisions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, JammerConfig
from repro.mac.frames import Frame, FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import BitErrorModel
from repro.phy.medium import Medium, Radio, SinrMedium
from repro.phy.params import dot11b
from repro.phy.propagation import SPEED_OF_LIGHT_M_PER_US, PathLossModel, distance
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

MEDIA = pytest.mark.parametrize("medium_cls", [Medium, SinrMedium])


class RecordingMac:
    """Minimal MAC stub that records PHY callbacks."""

    def __init__(self):
        self.received = []
        self.busy_transitions = []
        self.tx_done = 0

    def phy_busy(self):
        self.busy_transitions.append("busy")

    def phy_idle(self):
        self.busy_transitions.append("idle")

    def phy_tx_done(self):
        self.tx_done += 1

    def phy_receive(self, frame, corrupted, addr_ok, rssi_db):
        self.received.append((frame, corrupted, addr_ok, rssi_db))


def make_medium(positions, medium_cls=Medium, **kwargs):
    sim = Simulator()
    medium = medium_cls(
        sim,
        dot11b(),
        RngStreams(3).stream("m"),
        error_model=BitErrorModel(),
        **kwargs,
    )
    radios = []
    for i, pos in enumerate(positions):
        radio = medium.radio_class(medium, f"r{i}", pos)
        radio.mac = RecordingMac()
        radios.append(radio)
    return sim, medium, radios


def data_frame(src="r0", dst="r1", seq=1):
    return Frame(FrameKind.DATA, src, dst, 314.0, 1052, seq=seq)


def test_broadcast_reaches_all_in_range():
    sim, medium, (a, b, c) = make_medium([(0, 0), (10, 0), (20, 0)])
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    assert len(c.mac.received) == 1  # overhears too (default: infinite range)
    assert a.mac.tx_done == 1


def test_out_of_range_receives_nothing():
    sim, medium, (a, b) = make_medium([(0, 0), (100, 0)])
    medium.configure_ranges(55.0, 99.0)
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert b.mac.received == []
    assert b.mac.busy_transitions == []  # not even energy


def test_in_interference_range_senses_but_cannot_decode():
    sim, medium, (a, b) = make_medium([(0, 0), (70, 0)])
    medium.configure_ranges(55.0, 99.0)
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert b.mac.received == []
    assert "busy" in b.mac.busy_transitions
    assert b.mac.busy_transitions[-1] == "idle"


def test_equal_power_collision_corrupts_locked_frame():
    sim, medium, (a, b, c) = make_medium([(0, 0), (0, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r2", seq=1), 957.0)
    b.transmit(data_frame(src="r1", dst="r2", seq=2), 957.0)
    sim.run()
    # c locked the first arrival; the overlap garbles it.
    assert len(c.mac.received) == 1
    frame, corrupted, _addr_ok, _rssi = c.mac.received[0]
    assert corrupted


def test_capture_stronger_first_survives():
    # b is 10 m from c, a is 40 m away: power ratio 4^4 = 256 >= 10.
    sim, medium, (a, b, c) = make_medium([(40, 0), (10, 0), (0, 0)])
    b.transmit(data_frame(src="r1", dst="r2", seq=1), 957.0)
    a.transmit(data_frame(src="r0", dst="r2", seq=2), 957.0)
    sim.run()
    frames = [(f.src, corrupted) for (f, corrupted, _a, _r) in c.mac.received]
    assert ("r1", False) in frames  # strong frame captured cleanly


def test_capture_stronger_late_arrival_takes_over():
    sim, medium, (a, b, c) = make_medium([(40, 0), (10, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r2", seq=1), 957.0)  # weak first
    b.transmit(data_frame(src="r1", dst="r2", seq=2), 957.0)  # strong second
    sim.run()
    received_srcs = [f.src for (f, corrupted, _a, _r) in c.mac.received if not corrupted]
    assert received_srcs == ["r1"]


def test_capture_disabled_means_collision():
    sim, medium, (a, b, c) = make_medium(
        [(40, 0), (10, 0), (0, 0)], capture_enabled=False
    )
    b.transmit(data_frame(src="r1", dst="r2", seq=1), 957.0)
    a.transmit(data_frame(src="r0", dst="r2", seq=2), 957.0)
    sim.run()
    assert all(corrupted for (_f, corrupted, _a, _r) in c.mac.received)


def test_half_duplex_cannot_receive_while_transmitting():
    sim, medium, (a, b) = make_medium([(0, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r1", seq=1), 957.0)
    b.transmit(data_frame(src="r1", dst="r0", seq=2), 957.0)
    sim.run()
    assert a.mac.received == []
    assert b.mac.received == []


def test_no_mid_frame_locking():
    """A receiver that was busy transmitting when a frame started cannot
    decode it after its own transmission ends (missed preamble)."""
    sim, medium, (a, b) = make_medium([(0, 0), (0, 0)])
    b.transmit(data_frame(src="r1", dst="r0", seq=1), 100.0)  # short tx
    a.transmit(data_frame(src="r0", dst="r1", seq=2), 957.0)  # long overlap
    sim.run()
    assert b.mac.received == []


def test_corruption_rolls_per_receiver_link():
    sim, medium, (a, b, c) = make_medium([(0, 0), (5, 0), (10, 0)])
    medium.error_model.set_ber("r0", "r1", 1.0)  # only the r0->r1 link is bad
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    assert b.mac.received[0][1] is True  # corrupted at b
    assert c.mac.received[0][1] is False  # clean overheard copy at c


def test_address_survival_flag():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    medium.error_model.set_ber("r0", "r1", 1.0)
    medium.addr_dst_survival = 0.0  # force address loss on corruption
    a.transmit(data_frame(), 957.0)
    sim.run()
    _frame, corrupted, addr_ok, _rssi = b.mac.received[0]
    assert corrupted and not addr_ok


def test_rssi_reported_decreases_with_distance():
    sim, medium, (a, b, c) = make_medium([(0, 0), (10, 0), (30, 0)])
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    rssi_near = b.mac.received[0][3]
    rssi_far = c.mac.received[0][3]
    assert rssi_near > rssi_far


def test_rssi_jitter_applied():
    sim, medium, (a, b) = make_medium([(0, 0), (10, 0)], rssi_jitter=lambda rng: 3.0)
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    jittered = b.mac.received[0][3]
    sim2, medium2, (a2, b2) = make_medium([(0, 0), (10, 0)])
    a2.transmit(data_frame(dst="r1"), 957.0)
    sim2.run()
    assert jittered == pytest.approx(b2.mac.received[0][3] + 3.0)


def test_duplicate_radio_names_rejected():
    sim, medium, _radios = make_medium([(0, 0)])
    with pytest.raises(ValueError):
        Radio(medium, "r0", (1, 1))


def test_transmit_while_transmitting_rejected():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    a.transmit(data_frame(), 957.0)
    with pytest.raises(RuntimeError):
        a.transmit(data_frame(seq=2), 957.0)


def test_nonpositive_duration_rejected():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    with pytest.raises(ValueError):
        a.transmit(data_frame(), 0.0)


def test_invalid_range_config_rejected():
    sim, medium, _ = make_medium([(0, 0)])
    with pytest.raises(ValueError):
        medium.configure_ranges(99.0, 55.0)


def test_carrier_busy_during_own_transmission():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    a.transmit(data_frame(), 957.0)
    assert a.carrier_busy
    sim.run()
    assert not a.carrier_busy


# ------------------------------------------------------------ hearer lists --


def brute_force_hearers(medium, sender):
    """The carrier-sense rule applied from scratch to every attached radio."""
    expected = []
    for receiver in medium.radios:
        if receiver is sender:
            continue
        d = distance(sender.position, receiver.position)
        rss = medium.pathloss.rss(sender.tx_power, d)
        if rss < medium.cs_threshold:
            continue
        delay = d / SPEED_OF_LIGHT_M_PER_US if medium.propagation_delay else 0.0
        expected.append((receiver, rss.hex(), delay.hex(), rss >= medium.rx_threshold))
    return expected


def cached_hearers(medium, sender):
    entries = []
    for on_tx_start, on_tx_end, rss, delay, decodable in medium._hearers_from(sender):
        receiver = on_tx_start.__self__
        assert on_tx_end.__self__ is receiver
        assert type(decodable) is bool
        entries.append((receiver, rss.hex(), delay.hex(), decodable))
    return entries


coordinate = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)


@st.composite
def hearer_topologies(draw):
    """Random radios around one at the origin, some pinned exactly onto its
    communication or interference range circle (where rounding decides)."""
    ranges = draw(
        st.none()
        | st.tuples(
            st.floats(min_value=1.0, max_value=150.0),
            st.floats(min_value=0.0, max_value=150.0),
            st.floats(min_value=0.1, max_value=10.0),
        ).map(lambda t: (t[0], t[0] + t[1], t[2]))
    )
    comm, interference, range_power = (55.0, 99.0, 1.0) if ranges is None else ranges
    on_circle = st.tuples(
        st.sampled_from([comm, interference]), st.floats(min_value=0.0, max_value=6.3)
    ).map(lambda t: (t[0] * math.cos(t[1]), t[0] * math.sin(t[1])))
    tx_power = st.just(range_power) | st.floats(min_value=0.01, max_value=100.0)
    radios = [((0.0, 0.0), draw(tx_power))] + draw(
        st.lists(
            st.tuples(
                st.tuples(coordinate, coordinate) | on_circle | st.just((0.0, 0.0)),
                tx_power,
            ),
            max_size=9,
        )
    )
    pathloss = PathLossModel(
        exponent=draw(st.floats(min_value=1.5, max_value=6.0)),
        reference_distance=draw(st.sampled_from([0.5, 1.0, 5.0])),
    )
    return ranges, radios, pathloss, draw(st.booleans())


@MEDIA
@settings(max_examples=150, deadline=None)
@given(topology=hearer_topologies())
def test_hearer_lists_match_brute_force_filter(medium_cls, topology):
    ranges, radios, pathloss, propagation_delay = topology
    sim, medium, _ = make_medium(
        [], medium_cls, pathloss=pathloss, propagation_delay=propagation_delay
    )
    for i, (position, tx_power) in enumerate(radios):
        medium.radio_class(medium, f"r{i}", position, tx_power)
    if ranges is not None:
        medium.configure_ranges(*ranges)
    for sender in medium.radios:
        assert cached_hearers(medium, sender) == brute_force_hearers(medium, sender)


def frame_outcome(sim, sender, receiver, seq):
    """Send one frame and say how ``receiver`` experienced it."""
    receiver.mac.received.clear()
    receiver.mac.busy_transitions.clear()
    sender.transmit(data_frame(seq=seq), 957.0)
    sim.run()
    if receiver.mac.received:
        return "decoded"
    return "sensed" if receiver.mac.busy_transitions else "silent"


@MEDIA
def test_configure_ranges_mid_run_reaches_warm_sender(medium_cls):
    sim, medium, (a, b) = make_medium([(0, 0), (40, 0)], medium_cls)
    assert frame_outcome(sim, a, b, 1) == "decoded"  # no ranges: everyone hears
    medium.configure_ranges(30.0, 60.0)  # shrink: b only senses
    assert frame_outcome(sim, a, b, 2) == "sensed"
    medium.configure_ranges(20.0, 35.0)  # shrink further: b is out of range
    assert frame_outcome(sim, a, b, 3) == "silent"
    medium.configure_ranges(55.0, 99.0)  # grow back
    assert frame_outcome(sim, a, b, 4) == "decoded"


@MEDIA
def test_radio_attached_after_traffic_hears_warm_sender(medium_cls):
    sim, medium, (a, b) = make_medium([(0, 0), (10, 0)], medium_cls)
    assert frame_outcome(sim, a, b, 1) == "decoded"
    late = medium.radio_class(medium, "late", (20, 0))
    late.mac = RecordingMac()
    assert frame_outcome(sim, a, late, 2) == "decoded"
    assert len(b.mac.received) == 2  # the earlier hearer still hears too


@pytest.mark.parametrize("model", ["pairwise", "sinr"])
def test_jammer_installed_mid_run_hears_warm_senders(model):
    s = Scenario(seed=1, channel=ChannelConfig(model=model), rts_enabled=False)
    for name in ("S0", "R0"):
        s.add_wireless_node(name)
    source, _sink = s.udp_flow("S0", "R0")
    source.start()
    s.run(0.05)
    assert s.medium.frames_sent > 0
    # A jammer that never bursts inside the test: its radio only listens.
    injector = s.install_faults(
        FaultPlan(jammer=JammerConfig(start_us=10_000_000.0, position=(5.0, 0.0)))
    )
    probe = injector.jammer.radio.mac = RecordingMac()
    s.run(0.05)
    assert {frame.src for frame, *_rest in probe.received} >= {"S0", "R0"}
