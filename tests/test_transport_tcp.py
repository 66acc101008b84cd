"""Unit tests for the TCP Reno implementation."""

import random

import pytest

from repro.net.scenario import Scenario
from repro.sim.engine import Simulator
from repro.transport.packets import Packet, PacketKind
from repro.transport.tcp import CwndTracker, TcpReceiver, TcpSender


def make_pair(seed=1, ber=0.0, **tcp_kwargs):
    s = Scenario(seed=seed)
    s.add_wireless_node("a")
    s.add_wireless_node("b")
    if ber:
        s.error_model.set_ber("a", "b", ber)
        s.error_model.set_ber("b", "a", ber)
    snd, rcv = s.tcp_flow("a", "b", **tcp_kwargs)
    return s, snd, rcv


def test_lossless_transfer_fills_the_pipe():
    s, snd, rcv = make_pair()
    snd.start()
    s.run(2.0)
    assert rcv.segments_received > 200
    assert rcv.goodput_mbps(2e6) > 1.0
    assert snd.timeouts == 0
    # cwnd reached the receiver window cap.
    assert snd.cwnd == pytest.approx(float(snd.window))


def test_in_order_cumulative_acks():
    s, snd, rcv = make_pair()
    snd.start()
    s.run(1.0)
    assert rcv.rcv_next == rcv.segments_received  # no holes on a clean link
    assert rcv.duplicates == 0


def test_slow_start_then_congestion_avoidance():
    s, snd, rcv = make_pair(window=1000)  # effectively uncapped
    snd.start()
    s.run(1.0)
    # With an uncapped window, losses from queue overflow eventually set
    # ssthresh and move the sender to congestion avoidance.
    assert snd.cwnd_stats.max_seen > 10
    assert snd.segments_sent > rcv.segments_received * 0.9


def test_losses_trigger_recovery_not_collapse():
    # High enough that some losses survive the MAC's retry limit and reach
    # TCP (data FER ~0.6 per attempt -> ~7 % end-to-end loss).
    s, snd, rcv = make_pair(ber=8e-4)
    snd.start()
    s.run(3.0)
    assert rcv.segments_received > 30
    assert snd.retransmits > 0


def test_goodput_counts_unique_segments_only():
    s, snd, rcv = make_pair(ber=4e-4)
    snd.start()
    s.run(2.0)
    assert rcv.segments_received <= snd.segments_sent
    assert rcv.bytes_received == rcv.segments_received * snd.mss


def test_retransmit_hook_fires():
    s, snd, rcv = make_pair(ber=4e-4)
    events = []
    snd.on_retransmit = lambda seq, now: events.append(seq)
    snd.start()
    s.run(2.0)
    assert len(events) == snd.retransmits


def test_rto_recovers_from_total_blackout():
    """If the receiver vanishes mid-flow, RTO keeps probing."""
    s, snd, rcv = make_pair()
    snd.start()
    s.run(0.5)
    # Blackhole the link in both directions.
    s.error_model.set_ber("a", "b", 1.0)
    s.run(3.0)
    assert snd.timeouts >= 1
    assert snd.cwnd == 1.0
    # Heal the link: the flow resumes.
    s.error_model.set_ber("a", "b", 0.0)
    before = rcv.segments_received
    s.run(4.0)
    assert rcv.segments_received > before


def test_cwnd_tracker_time_weighted_average():
    sim = Simulator()
    tracker = CwndTracker(sim)
    sim.schedule(100.0, tracker.record, 10.0)  # cwnd 1 for 100 us
    sim.run()
    sim.schedule(100.0, lambda: None)  # cwnd 10 for another 100 us
    sim.run()
    assert tracker.average() == pytest.approx((1.0 * 100 + 10.0 * 100) / 200)
    assert tracker.max_seen == 10.0


def test_receiver_window_caps_cwnd():
    s, snd, rcv = make_pair(window=5)
    snd.start()
    s.run(1.0)
    assert snd.cwnd <= 5.0
    assert snd.cwnd_stats.max_seen <= 5.0


def test_receiver_acks_every_segment():
    s, snd, rcv = make_pair()
    snd.start()
    s.run(1.0)
    assert rcv.acks_sent == rcv.segments_received + rcv.duplicates


class _Node:
    """The two methods a transport agent calls on its node."""

    name = "b"

    def __init__(self):
        self.sent = []

    def bind_agent(self, flow_id, agent):
        pass

    def send_packet(self, packet):
        self.sent.append(packet.ack)


def _reference_receiver(seqs):
    """Duplicates, new segments, rcv_next and ACKs of a receiver that keeps
    every segment it has accepted in a set."""
    received, out_of_order = set(), set()
    rcv_next = duplicates = new = 0
    acks = []
    for seq in seqs:
        if seq in received or seq < rcv_next:
            duplicates += 1
        else:
            received.add(seq)
            new += 1
            if seq == rcv_next:
                rcv_next += 1
                while rcv_next in out_of_order:
                    out_of_order.discard(rcv_next)
                    rcv_next += 1
            else:
                out_of_order.add(seq)
        acks.append(rcv_next)
    return duplicates, new, rcv_next, acks


@pytest.mark.parametrize("case", ["in_order", "reordered", "duplicates"])
def test_receiver_counts_and_acks_match_a_full_received_set(case):
    """The receiver keeps only out-of-order state, yet counts duplicates and
    new segments and ACKs exactly as a receiver remembering every segment."""
    rng = random.Random(case)
    seqs = list(range(200))
    if case == "reordered":
        for i in range(0, 190, 7):  # local swaps and short holes
            j = i + rng.randrange(1, 9)
            seqs[i], seqs[j] = seqs[j], seqs[i]
    elif case == "duplicates":
        seqs = [s for s in seqs for _ in range(rng.choice((1, 1, 2, 3)))]
        seqs += [rng.randrange(250) for _ in range(300)]
        rng.shuffle(seqs)
    node = _Node()
    rcv = TcpReceiver(Simulator(), node, "f", "a")
    for seq in seqs:
        rcv.receive(Packet(PacketKind.TCP_DATA, "f", "a", "b", seq=seq, payload_bytes=8))
    duplicates, new, rcv_next, acks = _reference_receiver(seqs)
    assert (rcv.duplicates, rcv.segments_received, rcv.rcv_next) == (
        duplicates, new, rcv_next
    )
    assert node.sent == acks
    assert rcv.bytes_received == 8 * new
    assert rcv._out_of_order == {s for s in seqs if s > rcv.rcv_next}
    assert not hasattr(rcv, "_received")
