"""Equal-delay hearer groups push one heap entry where the per-hearer
fan-out pushed one per hearer, and must change nothing else.

``UngroupedMedium`` and ``UngroupedSinrMedium`` bind per-hearer lists: one
``(on_tx_start, on_tx_end, rss, delay, decodable)`` entry per hearer, in
group order (the link-table row's groups by first member, then each
group's members in attach order).  They live here only, as the reference
every grouped run is compared with: the frame trace, every MAC's
statistics, the event count, the frames sent and the final clock must be
equal.  The heap-key tests check the argument behind that one frame at a
time: a group entry takes its first member's ``(time, seq)`` key, and
expanding each group entry into its members gives the per-hearer order of
``Simulator.call_fanout``'s blocks (the sender's end, every start, every
end), for any airtime and any clock.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.scenario as scenario_module
from repro.campaign import builders
from repro.net.scenario import Scenario
from repro.perf.scenarios import get_scenario
from repro.phy.channel import ChannelConfig
from repro.phy.medium import Medium, SinrMedium, _HearerGroup
from repro.phy.propagation import SPEED_OF_LIGHT_M_PER_US
from repro.sim.engine import Simulator
from repro.stats.trace import FrameTracer
from tests.test_fuzz_determinism import CASE_DURATION_S, QUICK_CASES, _build_case
from tests.test_medium import data_frame, make_medium


def per_hearer(medium, sender):
    """``sender``'s hearers, one bound entry each, in group order."""
    links = medium._links or medium._layout_links()
    on_starts, on_ends = medium._on_starts, medium._on_ends
    return [
        (on_starts[receiver], on_ends[receiver], rss, delay, decodable)
        for delay, receivers, powers, flags in links.row(sender.index)
        for receiver, rss, decodable in zip(receivers, powers, flags)
    ]


class _Ungrouped:
    """Binds one entry per hearer, in group order, from the link table."""

    def _hearers_from(self, sender):
        hearers = self._hearers.get(sender)
        if hearers is None:
            hearers = self._hearers[sender] = per_hearer(self, sender)
        return hearers


class UngroupedMedium(_Ungrouped, Medium):
    pass


class UngroupedSinrMedium(_Ungrouped, SinrMedium):
    pass


@pytest.fixture
def ungrouped_media(monkeypatch):
    """Make every Scenario built inside the test use the ungrouped media."""

    def install():
        monkeypatch.setattr(scenario_module, "Medium", UngroupedMedium)
        monkeypatch.setattr(scenario_module, "SinrMedium", UngroupedSinrMedium)

    return install


def has_groups(medium):
    return any(
        isinstance(entry[0].__self__, _HearerGroup)
        for hearers in medium._hearers.values()
        for entry in hearers
    )


def outcome(scenario, duration_s):
    """Everything a grouped and an ungrouped run must agree on."""
    tracer = FrameTracer(scenario.medium)
    scenario.run(duration_s)
    return {
        "trace": [record.to_dict() for record in tracer.records],
        "stats": {name: repr(mac.stats) for name, mac in scenario.macs.items()},
        "events": scenario.sim.events_processed,
        "frames_sent": scenario.medium.frames_sent,
        "now": scenario.sim.now,
    }


def assert_same_runs(build, duration_s, ungrouped_media):
    """Run ``build()`` on the real media, then on the ungrouped ones."""
    scenario = build()
    real = outcome(scenario, duration_s)
    assert has_groups(scenario.medium)
    assert type(scenario.medium) in (Medium, SinrMedium)
    ungrouped_media()
    reference_scenario = build()
    assert isinstance(reference_scenario.medium, _Ungrouped)
    reference = outcome(reference_scenario, duration_s)
    assert not has_groups(reference_scenario.medium)
    assert real["frames_sent"] > 0
    assert real == reference


@pytest.mark.parametrize("case_seed", QUICK_CASES)
def test_quick_fuzz_case_runs_as_ungrouped(case_seed, ungrouped_media):
    scenario = _build_case(case_seed)
    grouped = outcome(scenario, CASE_DURATION_S)
    ungrouped_media()
    assert outcome(_build_case(case_seed), CASE_DURATION_S) == grouped


def ring_cell(model, clients=6, propagation_delay=True):
    """An AP with ``clients`` stations on a 12 m ring, each sending to it.

    Four clients sit on the axes, so their delays to the AP are equal to
    the last bit; the rest come from cos/sin.
    """

    def build():
        s = Scenario(
            seed=7,
            rts_enabled=False,
            channel=ChannelConfig(model=model, ranges=(55.0, 99.0)),
        )
        s.medium.propagation_delay = propagation_delay
        s.add_wireless_node("AP", position=(0.0, 0.0))
        axes = [(12.0, 0.0), (0.0, 12.0), (-12.0, 0.0), (0.0, -12.0)]
        for k in range(clients):
            angle = 2.0 * math.pi * (k + 0.5) / clients
            position = (
                axes[k]
                if k < len(axes)
                else (12.0 * math.cos(angle), 12.0 * math.sin(angle))
            )
            s.add_wireless_node(f"C{k}", position=position)
            source, _sink = s.udp_flow(f"C{k}", "AP", rate_bps=1.5e6)
            source.start()
        return s

    return build


@pytest.mark.parametrize("model", ["pairwise", "sinr"])
def test_ring_of_clients_runs_as_ungrouped(model, ungrouped_media):
    assert_same_runs(ring_cell(model), 0.2, ungrouped_media)


@pytest.mark.parametrize("model", ["pairwise", "sinr"])
def test_ring_without_propagation_delay_runs_as_ungrouped(model, ungrouped_media):
    assert_same_runs(
        ring_cell(model, propagation_delay=False), 0.2, ungrouped_media
    )


@pytest.mark.parametrize("name", ["fig1_nav_udp", "fig8_nav_tcp", "grc_nav"])
def test_co_located_stations_run_as_ungrouped(name, ungrouped_media):
    assert_same_runs(lambda: get_scenario(name).build(2).scenario, 0.3, ungrouped_media)


@pytest.mark.parametrize("model", ["pairwise", "sinr"])
def test_dense_grid_runs_as_ungrouped(model, ungrouped_media):
    def build():
        return builders.dense_hotspot_sinr.build(
            3, 0.05, channel=model, cells=4, spacing_m=72.0
        ).scenario

    assert_same_runs(build, 0.05, ungrouped_media)


# ------------------------------------------------------------- heap keys --


#: A sender at the origin and hearers in three equal-delay groups that
#: interleave in attach order, plus two lone hearers.
EQUAL_DELAYS = [
    (0.0, 0.0),
    (12.0, 0.0),
    (0.0, 0.0),
    (0.0, 30.0),
    (0.0, -12.0),
    (0.0, 0.0),
    (-30.0, 0.0),
    (17.0, 5.0),
    (-12.0, 0.0),
    (40.0, 9.0),
]


def pop_order(heap):
    """The ``(time, fn, args)`` of ``heap``'s entries in pop order, each
    group entry replaced by its members' entries."""
    order = []
    for time, _seq, fn, args in sorted(heap, key=lambda entry: entry[:2]):
        group = getattr(fn, "__self__", None)
        if isinstance(group, _HearerGroup):
            if fn == group.start:
                tx, rss, dec = args
                members = zip(group.on_starts, rss, dec)
                order += [(time, start, (tx, r, d)) for start, r, d in members]
            else:
                order += [(time, stop, args) for stop in group.on_ends]
        else:
            order.append((time, fn, args))
    return order


def transmit_and_reference(positions, duration, now=1234.567, medium_cls=Medium):
    """Transmit one frame from radio 0 at ``now``; return its simulator, a
    reference simulator holding the per-hearer ``call_after`` sequence of
    the same frame (the sender's end, every start, every end), and the
    medium."""
    sim, medium, radios = make_medium(positions, medium_cls)
    sim.call_at(now, lambda: None)
    sim.run()
    sender = radios[0]
    hearers = per_hearer(medium, sender)
    reference = Simulator()
    reference.call_at(now, lambda: None)
    reference.run()
    reference._seq = sim._seq
    sender.transmit(data_frame(), duration)
    tx = next(args[0] for _, _, _, args in sim._heap if args)
    reference.call_after(duration, sender._end_transmit)
    for on_tx_start, _on_tx_end, rss, delay, decodable in hearers:
        reference.call_after(delay, on_tx_start, tx, rss, decodable)
    for _on_tx_start, on_tx_end, _rss, delay, _decodable in hearers:
        reference.call_after(duration + delay, on_tx_end, tx)
    return sim, reference, medium


@pytest.mark.parametrize("medium_cls", [Medium, SinrMedium])
def test_group_entries_expand_to_the_per_hearer_keys(medium_cls):
    sim, reference, medium = transmit_and_reference(
        EQUAL_DELAYS, 957.1, medium_cls=medium_cls
    )
    hearers = medium._hearers_from(medium.radios[0])
    sizes = sorted(
        len(entry[0].__self__.on_starts)
        for entry in hearers
        if isinstance(entry[0].__self__, _HearerGroup)
    )
    assert sizes == [2, 2, 3]  # r2/r5 at 0 m, r3/r6 at 30 m, r1/r4/r8 at 12 m
    # One start and one end entry per group or lone hearer, plus the
    # sender's own end, numbered by call_fanout in list order.
    first_seq = min(seq for _time, seq, _fn, _args in reference._heap)
    assert len(sim._heap) == 1 + 2 * len(hearers) < len(reference._heap)
    assert sim._seq == first_seq + len(sim._heap) < reference._seq
    assert pop_order(sim._heap) == pop_order(reference._heap)
    # Each group entry takes its first member's key: the member's time, and
    # a seq that orders it among the frame's entries as the member's did.
    keys = {(fn, args): (time, seq) for time, seq, fn, args in reference._heap}
    firsts = []
    for time, seq, fn, args in sim._heap:
        group = getattr(fn, "__self__", None)
        if isinstance(group, _HearerGroup):
            if fn == group.start:
                tx, rss, dec = args
                member = (group.on_starts[0], (tx, rss[0], dec[0]))
            else:
                member = (group.on_ends[0], args)
        else:
            member = (fn, args)
        assert keys[member][0] == time
        firsts.append((seq, keys[member][1]))
    firsts.sort()
    assert [member_seq for _seq, member_seq in firsts] == sorted(
        member_seq for _seq, member_seq in firsts
    )


#: r1 and r3 share a delay; r2 sits a rounding error further out, so at
#: most times the three starts land on one float.
NEAR_EQUAL = [(0.0, 0.0), (12.0, 0.0), (12.000000000000002, 0.0), (-12.0, 0.0)]


@pytest.mark.parametrize(
    "positions, duration, now",
    [
        # r2's end meets r3's start: the airtime equals a delay difference.
        (EQUAL_DELAYS, 30.0 / SPEED_OF_LIGHT_M_PER_US, 1234.567),
        # r2's start rounds onto the r1/r3 group's start.
        (NEAR_EQUAL, 957.1, 1234.567),
        # Past 2**40 us distinct delays round together.
        (EQUAL_DELAYS, 957.1, 2.0**41),
        # Every start and end rounds onto the clock.
        (EQUAL_DELAYS, 1e-9, 2.0**30),
    ],
    ids=["airtime_within_delay_spread", "near_equal_delays", "late_clock", "tiny_airtime"],
)
def test_tied_entries_pop_in_the_reference_order(
    positions, duration, now
):
    sim, reference, medium = transmit_and_reference(positions, duration, now)
    hearers = medium._hearers_from(medium.radios[0])
    assert any(isinstance(entry[0].__self__, _HearerGroup) for entry in hearers)
    assert len(sim._heap) < len(reference._heap)
    assert pop_order(sim._heap) == pop_order(reference._heap)


def _ring(radii):
    """Radio 0 at the origin and hearers every 45 degrees on each radius."""
    positions = [(0.0, 0.0)]
    for radius in radii:
        for k in range(8):
            angle = math.radians(45.0 * k)
            positions.append((radius * math.cos(angle), radius * math.sin(angle)))
    return positions


_COORD = st.floats(-60.0, 60.0, allow_nan=False)
_LAYOUTS = st.one_of(
    st.integers(2, 8).map(lambda n: [(0.0, 0.0)] * n),
    st.lists(st.sampled_from([12.0, 30.0, 45.0]), min_size=1, max_size=3).map(_ring),
    st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(
    positions=_LAYOUTS,
    medium_cls=st.sampled_from([Medium, SinrMedium]),
    duration=st.floats(-12.0, math.log10(957.1)).map(lambda e: min(10.0**e, 957.1)),
    now=st.one_of(
        st.just(0.0),
        st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-10, 44)),
    ),
)
def test_group_entries_pop_in_the_reference_order(positions, medium_cls, duration, now):
    sim, reference, _medium = transmit_and_reference(
        positions, duration, now, medium_cls=medium_cls
    )
    assert pop_order(sim._heap) == pop_order(reference._heap)


@pytest.mark.parametrize("medium_cls", [Medium, SinrMedium])
def test_group_entries_bind_the_link_table_columns(medium_cls):
    """Two media of one layout bind each group's ``rss`` and ``decodable``
    as the link-table row's own tuples: a bind copies no column."""
    media = [make_medium(EQUAL_DELAYS, medium_cls)[1] for _ in range(2)]
    for medium in media:
        sender = medium.radios[0]
        hearers = medium._hearers_from(sender)
        row = medium._links.row(sender.index)
        assert medium._links is media[0]._links
        assert len(hearers) == len(row)
        groups = 0
        for (start, _stop, rss, delay, decodable), column in zip(hearers, row):
            if isinstance(start.__self__, _HearerGroup):
                groups += 1
                assert delay == column[0]
                assert rss is column[2] and decodable is column[3]
                assert type(rss) is tuple and type(decodable) is tuple
        assert groups == 3


def test_group_counts_one_event_per_member():
    sim, medium, radios = make_medium([(0.0, 0.0)] * 4)
    hearers = medium._hearers_from(radios[0])
    assert len(hearers) == 1 and len(hearers[0][0].__self__.on_starts) == 3
    radios[0].transmit(data_frame(), 500.0)
    assert sim.pending_events == 3  # the sender's end, one start, one end
    sim.run(until=100.0)
    assert sim.events_processed == 3 and sim.grouped_events == 0
    sim.run()
    assert sim.events_processed == 7
