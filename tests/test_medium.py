"""Unit tests for the broadcast medium: ranges, capture, collisions."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import builders
from repro.faults import FaultPlan, JammerConfig
from repro.mac.frames import Frame, FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import BitErrorModel, frame_error_rate
from repro.phy.medium import (
    LINK_TABLE_LAYOUTS,
    Medium,
    Radio,
    SinrMedium,
    _HearerGroup,
    link_table,
)
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


def test_bare_medium_rejects_duplicate_radio_name():
    medium = Medium(Simulator(), dot11b(), RngStreams(3).stream("m"))
    Radio(medium, "a")
    Radio(medium, "b", (5.0, 0.0))
    with pytest.raises(ValueError, match="duplicate radio name: a"):
        Radio(medium, "a", (1.0, 1.0))
    assert [r.name for r in medium.radios] == ["a", "b"]


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


def expand_groups(hearers):
    """A bound hearer list with each group entry replaced by its members:
    one ``[(on_tx_start, on_tx_end, rss, delay, decodable), ...]`` list per
    entry, members in the order the group runs them."""
    expanded = []
    for on_tx_start, on_tx_end, rss, delay, decodable in hearers:
        group = on_tx_start.__self__
        if isinstance(group, _HearerGroup):
            assert on_tx_end.__self__ is group
            assert type(rss) is tuple and type(decodable) is tuple
            assert len(group.on_starts) == len(group.on_ends) >= 2
            assert len(rss) == len(decodable) == len(group.on_starts)
            assert group.extra == len(group.on_starts) - 1
            expanded.append(
                list(
                    zip(
                        group.on_starts,
                        group.on_ends,
                        rss,
                        [delay] * len(rss),
                        decodable,
                    )
                )
            )
        else:
            expanded.append([(on_tx_start, on_tx_end, rss, delay, decodable)])
    return expanded


def cached_hearers(medium, sender):
    """``medium``'s bound hearers of ``sender`` in attach order, after
    checking that its groups partition them by exact delay: one entry per
    distinct delay, ordered by first member, members in attach order."""
    groups = expand_groups(medium._hearers_from(sender))
    delays = [members[0][3] for members in groups]
    assert len(set(delays)) == len(delays)
    first = [members[0][0].__self__.index for members in groups]
    assert first == sorted(first)
    entries = []
    for members in groups:
        indices = [start.__self__.index for start, *_ in members]
        assert indices == sorted(indices)
        for on_tx_start, on_tx_end, rss, delay, decodable in members:
            receiver = on_tx_start.__self__
            assert on_tx_end.__self__ is receiver
            assert type(decodable) is bool
            entries.append((receiver, rss.hex(), delay.hex(), decodable))
    return sorted(entries, key=lambda entry: entry[0].index)


near = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)
far = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


def on_circle_around(center, radii):
    """Points exactly on a circle of one of ``radii`` around ``center``."""
    return st.tuples(st.sampled_from(radii), st.floats(min_value=0.0, max_value=6.3)).map(
        lambda t: (center[0] + t[0] * math.cos(t[1]), center[1] + t[0] * math.sin(t[1]))
    )


@st.composite
def hearer_topologies(draw):
    """Up to 40 radios: up to 10 around one at the origin, some pinned exactly
    onto its communication or interference range circle (where rounding
    decides), and up to 20 more over +-5 km, with mixed transmit powers so
    every sender reaches a different distance.

    ``borders`` places more radios once the medium's grid exists: each is
    ``(i, j, radius, angle, power)`` and lands at the cell corner
    ``(i, j) * edge``, or on a range circle around that corner, sending at
    the power of an earlier radio (so the grid keeps its edge).
    """
    ranges = draw(
        st.none()
        | st.tuples(
            st.floats(min_value=1.0, max_value=150.0),
            st.floats(min_value=0.0, max_value=150.0),
            st.floats(min_value=0.1, max_value=10.0),
        ).map(lambda t: (t[0], t[0] + t[1], t[2]))
    )
    comm, interference, range_power = (55.0, 99.0, 1.0) if ranges is None else ranges
    tx_power = st.just(range_power) | st.floats(min_value=0.01, max_value=100.0)
    position = (
        st.tuples(near, near)
        | on_circle_around((0.0, 0.0), [comm, interference])
        | st.just((0.0, 0.0))
    )
    radios = [((0.0, 0.0), draw(tx_power))] + draw(
        st.lists(st.tuples(position, tx_power), max_size=9)
    )
    radios += draw(st.lists(st.tuples(st.tuples(far, far), tx_power), max_size=20))
    cell = st.integers(min_value=-4, max_value=4)
    borders = draw(
        st.lists(
            st.tuples(
                cell,
                cell,
                st.sampled_from([0.0, comm, interference]),
                st.floats(min_value=0.0, max_value=6.3),
                st.integers(min_value=0, max_value=len(radios) - 1),
            ),
            max_size=10,
        )
    )
    pathloss = PathLossModel(
        exponent=draw(st.floats(min_value=1.5, max_value=6.0)),
        reference_distance=draw(st.sampled_from([0.5, 1.0, 5.0])),
    )
    return ranges, radios, borders, pathloss, draw(st.booleans())


def assert_hearers_match_brute_force(medium):
    for sender in medium.radios:
        assert cached_hearers(medium, sender) == brute_force_hearers(medium, sender)


def build_layout(medium_cls, radios, ranges=None, **kwargs):
    """A medium with ``radios`` (``(position, tx_power)`` pairs) attached."""
    sim, medium, _ = make_medium([], medium_cls, **kwargs)
    for i, (position, tx_power) in enumerate(radios):
        medium.radio_class(medium, f"r{i}", position, tx_power)
    if ranges is not None:
        medium.configure_ranges(*ranges)
    return medium


@MEDIA
@settings(max_examples=150, deadline=None)
@given(topology=hearer_topologies())
def test_hearer_lists_match_brute_force_filter(medium_cls, topology):
    ranges, radios, borders, pathloss, propagation_delay = topology
    link_table.cache_clear()
    # The first medium builds the layout's link table (a miss), the second
    # one only binds its own radios to the same table (a hit).
    cold, warm = (
        build_layout(
            medium_cls,
            radios,
            ranges,
            pathloss=pathloss,
            propagation_delay=propagation_delay,
        )
        for _ in range(2)
    )
    assert_hearers_match_brute_force(cold)
    assert_hearers_match_brute_force(warm)
    assert warm._links is cold._links
    assert link_table.cache_info()[:2] == (1, 1)  # hits, misses
    medium = warm
    edge = medium._links.edge
    # With no ranges the grid is one infinite cell: use unit corners.
    corner = edge if edge < math.inf else 1.0
    for k, (i, j, radius, angle, power) in enumerate(borders):
        position = (
            i * corner + radius * math.cos(angle),
            j * corner + radius * math.sin(angle),
        )
        medium.radio_class(medium, f"b{k}", position, radios[power][1])
    assert_hearers_match_brute_force(medium)
    assert medium._links.edge == edge  # the late radios sat on this grid's borders


@MEDIA
def test_hearer_lists_rebuilt_after_late_attach_and_new_ranges(medium_cls):
    # A row of radios 30 m apart spans many grid cells (half of 99 m each).
    positions = [(-150.0 + 30.0 * i, 5.0 * (i % 3)) for i in range(11)]
    sim, medium, radios = make_medium(positions, medium_cls)
    medium.configure_ranges(55.0, 99.0)
    assert_hearers_match_brute_force(medium)
    before = {r: len(cached_hearers(medium, r)) for r in radios}
    # A louder radio widens the grid's cells.
    medium.radio_class(medium, "loud", (160.0, 0.0), 50.0)
    assert_hearers_match_brute_force(medium)
    # Shrinking the ranges shortens every list; growing them lengthens it.
    medium.configure_ranges(20.0, 35.0)
    assert_hearers_match_brute_force(medium)
    assert all(len(cached_hearers(medium, r)) < before[r] for r in radios)
    medium.configure_ranges(100.0, 400.0)
    assert_hearers_match_brute_force(medium)
    assert all(len(cached_hearers(medium, r)) == len(positions) for r in radios)


# A readable layout for the memo's key tests: (position, tx_power) per radio.
# r1 sits inside the reference distance, r2 on the 55 m circle, r3 between
# the circles, r4 on the 99 m one and r5 out of reach of everyone but r3.
KEY_LAYOUT = [
    ((0.0, 0.0), 1.0),
    ((3.0, 0.0), 1.0),
    ((0.0, 55.0), 1.0),
    ((70.0, 0.0), 2.0),
    ((-99.0, 0.0), 1.0),
    ((150.0, 40.0), 1.0),
]
KEY_RANGES = (55.0, 99.0)


def _nudged(radios, k, dx=0.5):
    (x, y), power = radios[k]
    return radios[:k] + [((x + dx, y), power)] + radios[k + 1 :]


#: One change to one component of the layout key each: (radios, ranges,
#: medium kwargs) -> the same, changed.
KEY_CHANGES = {
    "nudge_radio": lambda r, g, kw: (_nudged(r, 4, -0.5), g, kw),
    "tx_power": lambda r, g, kw: (r[:3] + [(r[3][0], 0.5)] + r[4:], g, kw),
    "ranges": lambda r, g, kw: (r, (40.0, 99.0), kw),
    "exponent": lambda r, g, kw: (
        r, g, {**kw, "pathloss": PathLossModel(exponent=3.0)}
    ),
    "reference_distance": lambda r, g, kw: (
        r, g, {**kw, "pathloss": PathLossModel(reference_distance=5.0)}
    ),
    "propagation_delay": lambda r, g, kw: (
        r, g, {**kw, "propagation_delay": not kw["propagation_delay"]}
    ),
    "attach_order": lambda r, g, kw: ([r[1], r[0]] + r[2:], g, kw),
}


@MEDIA
@pytest.mark.parametrize("change", sorted(KEY_CHANGES))
def test_changing_one_key_component_misses_the_link_memo(medium_cls, change):
    link_table.cache_clear()
    kwargs = {"pathloss": PathLossModel(), "propagation_delay": True}
    base = build_layout(medium_cls, KEY_LAYOUT, KEY_RANGES, **kwargs)
    assert_hearers_match_brute_force(base)
    radios, ranges, changed_kwargs = KEY_CHANGES[change](KEY_LAYOUT, KEY_RANGES, kwargs)
    misses = link_table.cache_info().misses
    medium = build_layout(medium_cls, radios, ranges, **changed_kwargs)
    assert_hearers_match_brute_force(medium)
    assert link_table.cache_info().misses == misses + 1
    assert medium._links is not base._links


def brute_force_hearers_by_index(medium, sender):
    return [
        (receiver.index, rss, delay, decodable)
        for receiver, rss, delay, decodable in brute_force_hearers(medium, sender)
    ]


def test_key_changes_each_move_some_hearer_list():
    """Each change above alters at least one hearer list, so a memo that
    ignored that component would fail the brute-force check."""

    def snapshot(radios, ranges, kwargs):
        medium = build_layout(Medium, radios, ranges, **kwargs)
        return [brute_force_hearers_by_index(medium, r) for r in medium.radios]

    kwargs = {"pathloss": PathLossModel(), "propagation_delay": True}
    base = snapshot(KEY_LAYOUT, KEY_RANGES, kwargs)
    for change, apply in KEY_CHANGES.items():
        assert snapshot(*apply(KEY_LAYOUT, KEY_RANGES, kwargs)) != base, change


@MEDIA
def test_list_positions_key_like_tuples(medium_cls):
    as_lists = [(list(position), power) for position, power in KEY_LAYOUT]
    medium = build_layout(medium_cls, as_lists, KEY_RANGES)
    assert type(medium.radios[0].position) is list  # kept as given
    assert_hearers_match_brute_force(medium)
    twin = build_layout(medium_cls, KEY_LAYOUT, KEY_RANGES)
    assert_hearers_match_brute_force(twin)
    assert twin._links is medium._links
    sim = medium.sim
    for radio in medium.radios:
        radio.mac = RecordingMac()
    a, b = medium.radios[:2]
    assert frame_outcome(sim, a, b, 1) == "decoded"


def test_link_memo_holds_numbers_only():
    medium = build_layout(SinrMedium, KEY_LAYOUT, KEY_RANGES)
    for radio in medium.radios:
        medium._hearers_from(radio)
    table = medium._links
    leaves = []

    def walk(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            walk(list(value.items()))
        else:
            leaves.append(value)

    walk([table.layout, table.edge, table.cells, table._rows])
    walk([table.cs_threshold, table.rx_threshold, table.propagation_delay])
    walk(list(vars(table.pathloss).values()))
    assert leaves and {type(v) for v in leaves} <= {int, float, bool}


def test_link_memo_never_exceeds_its_bound():
    assert link_table.cache_info().maxsize == LINK_TABLE_LAYOUTS
    link_table.cache_clear()
    first = build_layout(Medium, KEY_LAYOUT, KEY_RANGES)
    first._hearers_from(first.radios[0])
    for k in range(1, LINK_TABLE_LAYOUTS + 4):
        medium = build_layout(Medium, _nudged(KEY_LAYOUT, 5, k), KEY_RANGES)
        medium._hearers_from(medium.radios[0])
        assert link_table.cache_info().currsize == min(k + 1, LINK_TABLE_LAYOUTS)
    # The first layout was the least recently used: it went first.
    again = build_layout(Medium, KEY_LAYOUT, KEY_RANGES)
    misses = link_table.cache_info().misses
    assert_hearers_match_brute_force(again)
    assert link_table.cache_info().misses == misses + 1
    assert again._links is not first._links


def test_threads_building_one_layout_get_the_serial_geometry():
    """Fleet shards may build on threads: four concurrent builds of the
    SINR grid, racing on a cold memo, bind the geometry a serial build does."""
    def geometry(scenario):
        medium = scenario.medium
        return [
            [
                [
                    (start.__self__.name, rss.hex(), delay.hex(), decodable)
                    for start, _end, rss, delay, decodable in members
                ]
                for members in expand_groups(medium._hearers_from(radio))
            ]
            for radio in medium.radios
        ]

    link_table.cache_clear()
    expected = geometry(builders.dense_hotspot_sinr.build(1, 0.01).scenario)
    link_table.cache_clear()
    barrier = threading.Barrier(4)
    results = [None] * 4
    errors = []

    def work(k):
        try:
            built = builders.dense_hotspot_sinr.build(10 + k, 0.01)
            barrier.wait()
            built.scenario.run(0.005)  # lists bind on first frames, in the race
            results[k] = geometry(built.scenario)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert results == [expected] * 4
    assert link_table.cache_info().currsize == 1


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


# ------------------------------------------------------------ edge filter --


@MEDIA
def test_mac_that_publishes_no_edge_state_gets_every_edge(medium_cls):
    """The radio's edge filter defaults open: two back-to-back busy periods
    (a lone frame, then two overlapping ones) reach a plain MAC as exactly
    two busy/idle pairs, at the receiver and at the senders."""
    sim, medium, (a, b, c) = make_medium([(0, 0), (5, 0), (10, 0)], medium_cls)
    assert (c.wants_busy, c.wants_idle) == (True, True)
    a.transmit(data_frame(src="r0", dst="r2", seq=1), 500.0)
    sim.run()
    a.transmit(data_frame(src="r0", dst="r2", seq=2), 500.0)
    b.transmit(data_frame(src="r1", dst="r2", seq=3), 300.0)
    sim.run()
    assert c.mac.busy_transitions == ["busy", "idle", "busy", "idle"]
    assert a.mac.busy_transitions == ["busy", "idle", "busy", "idle"]
    assert a.mac.tx_done == 2 and b.mac.tx_done == 1


@MEDIA
def test_radio_skips_the_edges_a_mac_opts_out_of(medium_cls):
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)], medium_cls)
    b.wants_busy = False
    a.transmit(data_frame(), 500.0)
    sim.run()
    assert b.mac.busy_transitions == ["idle"]
    b.wants_busy, b.wants_idle = True, False
    a.transmit(data_frame(seq=2), 500.0)
    sim.run()
    assert b.mac.busy_transitions == ["idle", "busy"]
    assert len(b.mac.received) == 2  # deliveries never go through the filter


# -------------------------------------------------------- corruption plans --


LOSS_SETTERS = {
    "set_ber": lambda model: model.set_ber("r0", "r1", 1.0),
    "set_data_fer": lambda model: model.set_data_fer("r0", "r1", 1.0),
    "set_rate_profile": lambda model: model.set_rate_profile("r0", "r1", {11.0: 1.0}),
}


@pytest.mark.parametrize("setter", sorted(LOSS_SETTERS))
def test_loss_set_between_runs_takes_effect_on_the_next_run(setter):
    """The per-link plan memo is rebuilt whenever a loss table changes."""
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    model = medium.error_model
    model.set_ber("r1", "r0", 0.0)  # not trivial: the first run fills the memo
    a.transmit(Frame(FrameKind.DATA, "r0", "r1", 314.0, 1052, rate=11.0), 957.0)
    sim.run()
    assert model._plans and b.mac.received[-1][1] is False
    LOSS_SETTERS[setter](model)
    a.transmit(Frame(FrameKind.DATA, "r0", "r1", 314.0, 1052, seq=2, rate=11.0), 957.0)
    sim.run()
    assert b.mac.received[-1][1] is True


def test_plan_memo_never_reaches_pickles_or_cache_keys():
    import pickle

    from repro.runtime import canonical

    model = BitErrorModel()
    model.set_ber("r0", "r1", 2e-4)
    key = canonical(model)
    assert model.corruption_plan("r0", "r1", 1052, True) is not None
    assert model._plans
    assert canonical(model) == key  # cache keys and code_version results
    assert set(key["fields"]) == {"default_ber", "_link_ber", "_link_fer", "_rate_ber"}
    clone = pickle.loads(pickle.dumps(model))
    assert clone._plans == {} and not clone.trivial
    assert "_plans" not in model.__getstate__()
    assert clone == model
    assert clone.corruption_plan("r0", "r1", 1052, True) == frame_error_rate(2e-4, 1052)


def test_transmit_pushes_the_keys_of_the_per_callback_sequence():
    """One ``call_fanout`` leaves the heap exactly as the 1 + 2n ``call_after``
    calls it replaces would (the sender's end, every start, every end), on
    a medium whose hearers all have distinct non-zero propagation delays."""
    positions = [(0.0, 0.0), (31.0, 0.0), (0.0, 67.0), (77.0, 12.0)]
    sim, medium, radios = make_medium(positions)
    hearers = medium._hearers_from(radios[0])
    delays = [delay for _, _, _, delay, _ in hearers]
    assert len(delays) == 3 and len(set(delays)) == 3 and min(delays) > 0.0
    # For r3 the association of the end time matters.
    assert (1234.567 + 957.1) + delays[2] != 1234.567 + (957.1 + delays[2])
    sim.call_at(1234.567, lambda: None)
    sim.run()
    reference = Simulator()
    reference.call_at(1234.567, lambda: None)
    reference.run()
    duration = 957.1
    radios[0].transmit(data_frame(), duration)
    tx = next(args[0] for _, _, _, args in sim._heap if args)
    reference.call_after(duration, radios[0]._end_transmit)
    for on_tx_start, _on_tx_end, rss, delay, decodable in hearers:
        reference.call_after(delay, on_tx_start, tx, rss, decodable)
    for _on_tx_start, on_tx_end, _rss, delay, _decodable in hearers:
        reference.call_after(duration + delay, on_tx_end, tx)
    assert sorted(sim._heap) == sorted(reference._heap)
    assert sim._seq == reference._seq
    assert sim.pending_events == reference.pending_events == 7


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_non_finite_airtime_rejected_without_side_effects(duration):
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    with pytest.raises(ValueError):
        a.transmit(data_frame(), duration)
    assert sim._heap == [] and medium.frames_sent == 0
    assert not a.transmitting and a.mac.busy_transitions == []


@pytest.mark.parametrize(
    "name, duration_s, high_water, pending",
    [("fig1_nav_udp", 0.5, 10, 7), ("dense_hotspot_sinr", 0.1, 337, 183)],
)
def test_engine_gauges_pinned_on_perf_scenarios(name, duration_s, high_water, pending):
    """Heap high water and live entries at the end, seed 1.  Both count heap
    entries, and an equal-delay hearer group is one entry each way, so they
    sit below the per-hearer fan-out's 16/9 and 529/225."""
    from repro.obs import MetricsRegistry, capture
    from repro.perf.scenarios import get_scenario

    registry = MetricsRegistry()
    with capture(registry):
        built = get_scenario(name).build(1)
        built.scenario.run(duration_s)
    gauges = registry.snapshot(scenario=name, seed=1, duration_s=duration_s).gauges
    assert gauges["sim.engine.heap_high_water"] == high_water
    assert gauges["sim.engine.pending_at_end"] == pending
