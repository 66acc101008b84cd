"""Unit tests for the DCF MAC state machine.

These drive one or two MACs over a real medium and assert protocol-level
behavior: exchanges complete, retries double CW, NAV defers, duplicates are
filtered, and the misbehavior/detection hooks fire at the right points.
"""

import random

import pytest

from repro.core.greedy import GreedyConfig, GreedyReceiverPolicy
from repro.mac.dcf import DcfMac
from repro.mac.frames import Frame, FrameKind
from repro.mac.policy import ReceiverPolicy
from repro.net.scenario import Scenario
from repro.phy.error import BitErrorModel
from repro.phy.medium import Medium, Radio
from repro.phy.params import dot11b
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_cell(n_nodes=2, rts_enabled=True, phy=None, **mac_kwargs):
    """A tiny co-located cell of ``n_nodes`` MACs on one medium."""
    sim = Simulator()
    phy = phy or dot11b()
    streams = RngStreams(7)
    medium = Medium(sim, phy, streams.stream("medium"), error_model=BitErrorModel())
    macs = []
    for i in range(n_nodes):
        radio = Radio(medium, f"n{i}", (0.0, 0.0))
        macs.append(
            DcfMac(
                sim,
                phy,
                radio,
                streams.stream(f"mac{i}"),
                rts_enabled=rts_enabled,
                **mac_kwargs,
            )
        )
    return sim, medium, macs


def test_single_exchange_with_rts_cts():
    sim, medium, (a, b) = make_cell()
    delivered = []
    b.on_deliver = lambda payload, src: delivered.append((payload, src))
    a.send("hello", "n1", 1024)
    sim.run(until=20_000)
    assert delivered == [("hello", "n0")]
    assert a.stats.tx_rts == 1
    assert a.stats.tx_data == 1
    assert a.stats.msdu_sent == 1
    assert b.stats.tx_cts == 1
    assert b.stats.tx_ack == 1


def test_single_exchange_without_rts_cts():
    sim, medium, (a, b) = make_cell(rts_enabled=False)
    delivered = []
    b.on_deliver = lambda payload, src: delivered.append(payload)
    a.send("x", "n1", 500)
    sim.run(until=20_000)
    assert delivered == ["x"]
    assert a.stats.tx_rts == 0
    assert b.stats.tx_cts == 0
    assert b.stats.tx_ack == 1


def test_queue_drains_in_fifo_order():
    sim, medium, (a, b) = make_cell()
    delivered = []
    b.on_deliver = lambda payload, src: delivered.append(payload)
    for i in range(5):
        a.send(i, "n1", 1024)
    sim.run(until=100_000)
    assert delivered == [0, 1, 2, 3, 4]


def test_queue_overflow_dropped():
    sim, medium, (a, b) = make_cell(queue_limit=3)
    assert a.send(1, "n1", 100)
    assert a.send(2, "n1", 100)
    assert a.send(3, "n1", 100)
    assert not a.send(4, "n1", 100)
    assert a.stats.queue_drops == 1


def test_missing_receiver_retries_and_drops():
    """RTS to a node that never answers: CW doubles, then the packet drops."""
    sim, medium, (a, b) = make_cell()
    dropped = []
    a.on_msdu_dropped = lambda payload, dst: dropped.append(payload)
    a.send("lost", "nowhere", 1024)
    sim.run(until=1_000_000)
    assert dropped == ["lost"]
    assert a.stats.retries == a.phy.short_retry_limit + 1
    assert a.stats.drops == 1
    # CW resets to minimum after the drop.
    assert a.cw == a.phy.cw_min


def test_cw_doubles_on_retry():
    sim, medium, (a, b) = make_cell()
    a.send("x", "nowhere", 1024)
    observed = set()

    def watch():
        observed.add(a.cw)
        if sim.pending_events:
            sim.schedule(500, watch)

    sim.schedule(500, watch)
    sim.run(until=600_000)
    # CW went through doubling steps 31 -> 63 -> 127 ...
    assert 63 in observed
    assert 127 in observed


def test_nav_defers_third_party():
    """A station with NAV set must not transmit until the NAV expires."""
    sim, medium, (a, b, c) = make_cell(3)
    # c overhears a CTS reserving the medium for a long time.
    cts = Frame(FrameKind.CTS, "n1", "n0", 20_000.0, 14)
    b.radio.transmit(cts, 304.0)
    sim.run(until=400)
    assert c.nav_until > sim.now
    c.send("q", "n0", 100)
    sim.run(until=5_000)
    assert c.stats.tx_rts == 0  # still silenced by NAV
    sim.run(until=40_000)
    assert c.stats.tx_rts >= 1  # NAV expired, transmission proceeded


def test_nav_ignored_when_frame_addressed_to_us():
    """Per 802.11 (and exploited by the paper): frames addressed to the
    station do not update its NAV."""
    sim, medium, (a, b) = make_cell()
    cts = Frame(FrameKind.CTS, "n1", "n0", 30_000.0, 14)
    b.radio.transmit(cts, 304.0)
    sim.run(until=400)
    assert a.nav_until <= sim.now  # a is the destination: no NAV update


def test_nav_updates_only_to_larger_values():
    sim, medium, (a, b, c) = make_cell(3)
    big = Frame(FrameKind.CTS, "n1", "n0", 20_000.0, 14)
    b.radio.transmit(big, 304.0)
    sim.run(until=400)
    nav_after_big = c.nav_until
    small = Frame(FrameKind.ACK, "n1", "n0", 1_000.0, 14)
    b.radio.transmit(small, 304.0)
    sim.run(until=800)
    assert c.nav_until == nav_after_big  # smaller NAV must not shrink it


def test_duplicate_data_not_delivered_twice():
    sim, medium, (a, b) = make_cell()
    delivered = []
    b.on_deliver = lambda payload, src: delivered.append(payload)
    frame = Frame(FrameKind.DATA, "n0", "n1", 314.0, 1052, seq=9, payload="dup")
    a.radio.transmit(frame, 957.0)
    sim.run(until=3_000)
    retry = Frame(FrameKind.DATA, "n0", "n1", 314.0, 1052, seq=9, retry=True, payload="dup")
    a.radio.transmit(retry, 957.0)
    sim.run(until=6_000)
    assert delivered == ["dup"]
    assert b.stats.rx_duplicates == 1
    assert b.stats.tx_ack == 2  # duplicates are still acknowledged


def test_seq_wrap_does_not_stall_delivery():
    """MSDU seqs are 12-bit.  Once a sender's counter wraps (after 4,096
    MSDUs, about 5 s into this flow) its new frames must still be delivered,
    not dropped as duplicates of the first lap."""
    scenario = Scenario(seed=1)
    scenario.add_wireless_node("a")
    scenario.add_wireless_node("b")
    source, sink = scenario.udp_flow("a", "b", rate_bps=20e6, packet_size=512)
    source.start()
    scenario.run(5.0)
    first = sink.packets_received
    assert 0 < first < 4096  # the counter has not wrapped yet
    scenario.run(7.0)  # to 12 s: the counter wraps about twice
    later = sink.packets_received - first
    assert scenario.macs["b"].stats.rx_duplicates == 0
    assert later > 0.9 * first * 7.0 / 5.0  # goodput holds after the wrap


def test_policy_swapped_after_construction_still_inflates_nav():
    """The MAC reads ``policy.rewrites_nav`` per frame, so a NAV-inflating
    policy installed after the MAC was built still rewrites its CTS."""
    sim, medium, (a, b, c) = make_cell(3)
    assert not b.policy.rewrites_nav
    b.policy = GreedyReceiverPolicy(GreedyConfig.nav_inflator(5000.0), random.Random(1))
    b.policy.attach(b)
    navs = {}
    transmit = medium.transmit

    def spy(sender, frame, duration):
        navs.setdefault(frame.kind, frame.duration)
        transmit(sender, frame, duration)

    medium.transmit = spy
    a.send("x", "n1", 1024)
    sim.run(until=20_000)
    honest = max(0.0, navs[FrameKind.RTS] - a.phy.sifs - a.phy.cts_time)
    assert navs[FrameKind.CTS] == honest + 5000.0
    assert b.policy.nav_inflations == 1


def test_receiver_withholds_cts_when_nav_busy():
    """The shared-sender damage mechanism: a receiver whose NAV was inflated
    cannot answer RTS, so the sender times out."""
    sim, medium, (a, b, c) = make_cell(3)
    # c's NAV gets reserved for a long time by an overheard CTS.
    cts = Frame(FrameKind.CTS, "n1", "n0", 50_000.0, 14)
    b.radio.transmit(cts, 304.0)
    sim.run(until=400)
    # Now a sends an RTS to c: c must stay silent.
    a.send("x", "n2", 1024)
    sim.run(until=4_000)
    assert c.stats.tx_cts == 0
    assert a.stats.retries >= 1


def test_fake_ack_policy_hook():
    class FakeAcker(ReceiverPolicy):
        def should_fake_ack(self, corrupted_frame):
            return True

    sim, medium, macs = make_cell(2)
    a, b = macs
    b.policy = FakeAcker()
    b.policy.attach(b)
    medium.error_model.set_ber("n0", "n1", 1.0)  # every data frame corrupted
    medium.addr_dst_survival = 1.0
    medium.addr_src_survival = 1.0
    sent = []
    a.on_msdu_sent = lambda payload, dst: sent.append(payload)
    a.rts_enabled = False
    a.send("x", "n1", 1024)
    sim.run(until=50_000)
    # The sender believes the corrupted frame was delivered.
    assert sent == ["x"]
    assert b.stats.tx_fake_ack >= 1
    assert b.stats.rx_data_corrupted >= 1


def test_spoof_ack_policy_hook():
    class Spoofer(ReceiverPolicy):
        def should_spoof_ack(self, data_frame):
            return True

    sim, medium, macs = make_cell(3, rts_enabled=False)
    a, b, c = macs
    c.policy = Spoofer()
    c.policy.attach(c)
    # b never ACKs (we silence it by making it deaf via its own transmit):
    # simpler: send to a name that matches no radio, but then nobody hears.
    # Instead: corrupt the a->b link so b never receives, while c overhears.
    medium.error_model.set_ber("n0", "n1", 1.0)
    sent = []
    a.on_msdu_sent = lambda payload, dst: sent.append(payload)
    a.send("x", "n1", 1024)
    sim.run(until=50_000)
    assert c.stats.tx_spoofed_ack >= 1
    assert sent == ["x"]  # the spoofed ACK convinced the sender


def test_eifs_after_corrupted_reception():
    sim, medium, (a, b) = make_cell()
    medium.error_model.set_ber("n0", "n1", 1.0)
    frame = Frame(FrameKind.DATA, "n0", "n1", 314.0, 1052, seq=1)
    a.radio.transmit(frame, 957.0)
    sim.run(until=2_000)
    assert b._use_eifs  # next deferral uses EIFS
    # A clean reception clears it.
    medium.error_model.set_ber("n0", "n1", 0.0)
    frame2 = Frame(FrameKind.DATA, "n0", "n1", 314.0, 1052, seq=2)
    a.radio.transmit(frame2, 957.0)
    sim.run(until=4_000)
    assert not b._use_eifs


def test_per_destination_retransmission_disable():
    # Without RTS/CTS so the exchange reaches the data/ACK stage, which is
    # where the spoof-emulation knob acts.
    sim, medium, (a, b) = make_cell(rts_enabled=False)
    a.no_retransmit_to.add("nowhere")
    sent = []
    a.on_msdu_sent = lambda payload, dst: sent.append((payload, dst))
    a.send("x", "nowhere", 1024)
    sim.run(until=100_000)
    # One data attempt, no retries after the ACK timeout, reported as sent.
    assert sent == [("x", "nowhere")]
    assert a.stats.tx_data == 1


def test_per_destination_cw_clamp():
    sim, medium, (a, b) = make_cell()
    a.cw_max_to["nowhere"] = a.phy.cw_min
    a.send("x", "nowhere", 1024)
    sim.run(until=1_000_000)
    # Despite many retries, CW never grew past the clamp.
    assert a.stats.retries > 0
    assert all(cw == a.phy.cw_min for cw in a.stats.cw_histogram)


def test_backoff_drawn_within_cw():
    sim, medium, (a, b) = make_cell()
    for _ in range(50):
        a._backoff_slots = None
        a._state = "CONTEND"
        a._queue.append(type("M", (), {"dst": "n1", "size_bytes": 10, "payload": 0, "seq": 0})())
        a._try_start_access()
        assert a._backoff_slots is not None
        assert 0 <= a._backoff_slots <= a.cw
        sim.cancel(a._access_timer)
        a._queue.clear()
        a._state = "IDLE"


def test_cw_resets_after_success():
    sim, medium, (a, b) = make_cell()
    a.cw = 255  # pretend we had a bad streak
    a.send("x", "n1", 1024)
    sim.run(until=50_000)
    assert a.stats.msdu_sent == 1
    assert a.cw == a.phy.cw_min


def test_two_senders_share_medium():
    sim, medium, macs = make_cell(4)
    a, b, c, d = macs
    got = {"b": 0, "d": 0}
    b.on_deliver = lambda p, s: got.__setitem__("b", got["b"] + 1)
    d.on_deliver = lambda p, s: got.__setitem__("d", got["d"] + 1)
    for i in range(40):
        a.send(i, "n1", 1024)
        c.send(i, "n3", 1024)
    sim.run(until=500_000)
    assert got["b"] > 5
    assert got["d"] > 5
    # Nobody is starved in an honest cell.
    assert 0.3 < got["b"] / got["d"] < 3.0


def test_crashed_mac_is_never_restarted_before_reboot():
    """A MAC crashed mid-backoff stays IDLE through busy/idle edges and a
    late NAV expiry: no access event, no frame on the air until reboot()."""
    sim, medium, (a, b, c) = make_cell(3)
    senders = []
    transmit = medium.transmit

    def spy(sender, frame, duration):
        senders.append(sender.name)
        transmit(sender, frame, duration)

    medium.transmit = spy
    a.send("x", "n1", 1024)
    assert a._access_timer.pending  # counting down DIFS + backoff
    assert (a.radio.wants_busy, a.radio.wants_idle) == (True, False)
    a.crash()
    assert (a.radio.wants_busy, a.radio.wants_idle) == (False, False)
    b.send("y", "n2", 1024)  # b <-> c traffic: busy and idle edges at a
    sim.run(until=20_000)
    a._nav_timer.fn()  # a NAV timer firing after the crash
    a.phy_busy()  # edges from a radio that ignores the filter
    a.phy_idle()
    sim.run(until=40_000)
    assert a.state == "IDLE" and not a._access_timer.pending
    assert "n1" in senders and "n0" not in senders
    a.reboot()
    assert a.send("z", "n1", 1024)
    sim.run(until=60_000)
    assert "n0" in senders


def test_station_crashed_within_sifs_sends_no_queued_response():
    """n1 crashes 8 us after n0's RTS ends, inside the SIFS before its CTS:
    the CTS it had queued never goes on the air."""
    sim, medium, (a, b) = make_cell()
    assert b.phy.sifs > 8.0
    on_air = []
    transmit = medium.transmit

    def spy(sender, frame, duration):
        on_air.append((sender.name, frame.kind))
        if frame.kind is FrameKind.RTS:
            sim.call_after(duration + 8.0, b.crash)
        transmit(sender, frame, duration)

    medium.transmit = spy
    a.send("x", "n1", 1024)
    sim.run(until=20_000)
    assert b.offline and b.stats.crashes == 1
    assert ("n0", FrameKind.RTS) in on_air
    assert not [kind for name, kind in on_air if name == "n1"]
    assert b.stats.tx_cts == 0
