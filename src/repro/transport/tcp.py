"""TCP Reno sender and receiver.

A compact but faithful Reno: slow start, congestion avoidance, three-dup-ACK
fast retransmit + fast recovery, exponential RTO backoff with Karn's
algorithm.  Sequence numbers are in MSS-sized segments (as ns-2's TCP agents
count), which is also how the paper reports congestion windows (Table II).

ACK spoofing (misbehavior 2) hurts TCP precisely through this machinery: a
spoofed MAC ACK suppresses MAC retransmission, the segment loss reaches the
TCP sender as dup-ACKs or a timeout, and the congestion window collapses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.engine import Simulator
from repro.transport.packets import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

US_PER_S = 1_000_000.0


class CwndTracker:
    """Time-weighted congestion-window statistics (Table II metric)."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._last_time = sim.now
        self._last_value = 1.0
        self._area = 0.0
        self._start = sim.now
        self.max_seen = 1.0

    def record(self, cwnd: float) -> None:
        now = self._sim.now
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = cwnd
        self.max_seen = max(self.max_seen, cwnd)

    def average(self) -> float:
        elapsed = self._sim.now - self._start
        if elapsed <= 0:
            return self._last_value
        area = self._area + self._last_value * (self._sim.now - self._last_time)
        return area / elapsed


class TcpSender:
    """Reno sender with an unbounded (FTP-like) supply of data."""

    # A fixed layout: its 30 attributes are one past the most CPython 3.11
    # specialises on an instance dict (see DcfMac).  There is no
    # ``__dict__``: code that wraps a method wraps it on the class.
    __slots__ = (
        "sim",
        "node",
        "flow_id",
        "dst",
        "mss",
        "window",
        "min_rto_us",
        "max_rto_us",
        "cwnd",
        "ssthresh",
        "snd_una",
        "snd_nxt",
        "snd_max",
        "_dupacks",
        "_recover",
        "_srtt",
        "_rttvar",
        "_rto",
        "_backoff",
        "_timed_seq",
        "_timed_at",
        "_retransmitted",
        "_rto_timer",
        "cwnd_stats",
        "segments_sent",
        "retransmits",
        "timeouts",
        "fast_retransmits",
        "on_retransmit",
        "obs",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        flow_id: str,
        dst: str,
        mss: int = 1024,
        window: int = 20,
        initial_rto_us: float = 1_000_000.0,
        min_rto_us: float = 200_000.0,
        max_rto_us: float = 16_000_000.0,
    ) -> None:
        # The initial RTO is the RFC 6298 1 s: a value below the path RTT
        # causes chronic spurious timeouts that Karn's rule can never recover
        # from (retransmitted segments yield no RTT samples, so the RTO never
        # adapts upward), while a larger value lets one early loss idle the
        # flow for a large fraction of a short simulation.
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst = dst
        self.mss = mss
        self.window = window  # receiver-advertised cap, in segments
        self.min_rto_us = min_rto_us
        self.max_rto_us = max_rto_us

        self.cwnd = 1.0
        self.ssthresh = float(window)
        self.snd_una = 0  # lowest unacknowledged segment
        self.snd_nxt = 0  # next new segment to send
        self.snd_max = 0  # highest segment ever sent + 1 (survives go-back-N)
        self._dupacks = 0
        self._recover = -1  # fast-recovery high-water mark (-1: not in recovery)

        self._srtt: float | None = None
        self._rttvar = 0.0
        self._rto = initial_rto_us
        self._backoff = 1
        self._timed_seq: int | None = None  # segment being timed (Karn)
        self._timed_at = 0.0
        self._retransmitted: set[int] = set()
        # The retransmission timer, re-armed in place.
        self._rto_timer = sim.timer(self._on_rto)

        self.cwnd_stats = CwndTracker(sim)
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        #: Optional hook fired with (seq, now) on every TCP retransmission —
        #: used by the GRC cross-layer spoofed-ACK detector (Section VII-B).
        self.on_retransmit: "Callable[[int, float], None] | None" = None
        #: Telemetry registry (:mod:`repro.obs`) or None (guarded hooks).
        self.obs = None
        node.bind_agent(flow_id, self)

    # ------------------------------------------------------------------ API --

    def start(self, at: float = 0.0) -> None:
        self.sim.schedule_at(max(at, self.sim.now), self._try_send)

    # ------------------------------------------------------------- sending --

    def _effective_window(self) -> int:
        return int(min(self.cwnd, self.window))

    def _try_send(self) -> None:
        limit = self.snd_una + max(1, self._effective_window())
        while self.snd_nxt < limit:
            self._send_segment(self.snd_nxt, retransmit=False)
            self.snd_nxt += 1
            limit = self.snd_una + max(1, self._effective_window())

    def _send_segment(self, seq: int, retransmit: bool) -> None:
        packet = Packet(
            PacketKind.TCP_DATA,
            self.flow_id,
            self.node.name,
            self.dst,
            seq=seq,
            payload_bytes=self.mss,
            created_at=self.sim.now,
        )
        self.segments_sent += 1
        self.snd_max = max(self.snd_max, seq + 1)
        if self.obs is not None:
            self.obs.inc(f"transport.{self.node.name}.tx_segments")
            if retransmit:
                self.obs.inc(f"transport.{self.node.name}.tx_retransmits")
        if retransmit:
            self.retransmits += 1
            self._retransmitted.add(seq)
            if self.on_retransmit is not None:
                self.on_retransmit(seq, self.sim.now)
        elif self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = self.sim.now
        if not self._rto_timer.pending:
            self._arm_rto()
        self.node.send_packet(packet)

    # ---------------------------------------------------------------- ACKs --

    def receive(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.TCP_ACK:
            return
        ackno = packet.ack
        if ackno > self.snd_una:
            self._new_ack(ackno)
        elif ackno == self.snd_una:
            self._dup_ack()
        self._try_send()

    def _new_ack(self, ackno: int) -> None:
        if self._timed_seq is not None and ackno > self._timed_seq:
            if self._timed_seq not in self._retransmitted:
                self._update_rtt(self.sim.now - self._timed_at)
            self._timed_seq = None
        self._backoff = 1
        self._dupacks = 0
        self.snd_una = ackno
        if self._retransmitted:
            self._retransmitted = {s for s in self._retransmitted if s >= ackno}
        if self._recover >= 0:
            # Reno: leave fast recovery on the first new ACK, deflate cwnd.
            self.cwnd = self.ssthresh
            self._recover = -1
        elif self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, float(self.window))
        self.cwnd_stats.record(self.cwnd)
        if self.snd_una == self.snd_nxt:
            self.sim.cancel(self._rto_timer)
        else:
            self._arm_rto(restart=True)

    def _dup_ack(self) -> None:
        self._dupacks += 1
        if self._recover >= 0:
            self.cwnd += 1.0  # inflate during recovery
            self.cwnd_stats.record(self.cwnd)
            return
        if self._dupacks == 3:
            self.fast_retransmits += 1
            if self.obs is not None:
                self.obs.inc(f"transport.{self.node.name}.tx_fast_retransmits")
            flight = self.snd_nxt - self.snd_una
            self.ssthresh = max(flight / 2.0, 2.0)
            self._recover = self.snd_nxt
            self._send_segment(self.snd_una, retransmit=True)
            self.cwnd = self.ssthresh + 3.0
            self.cwnd_stats.record(self.cwnd)
            self._arm_rto(restart=True)

    # ----------------------------------------------------------------- RTO --

    def _update_rtt(self, sample_us: float) -> None:
        if self._srtt is None:
            self._srtt = sample_us
            self._rttvar = sample_us / 2.0
        else:
            err = sample_us - self._srtt
            self._srtt += 0.125 * err
            self._rttvar += 0.25 * (abs(err) - self._rttvar)
        self._rto = max(self.min_rto_us, self._srtt + 4.0 * self._rttvar)
        self._rto = min(self._rto, self.max_rto_us)

    def _arm_rto(self, restart: bool = False) -> None:
        """Arm the RTO if it is idle; with ``restart``, push it back too."""
        if restart or not self._rto_timer.pending:
            self.sim.rearm_at(self._rto_timer, self.sim.now + self._rto * self._backoff)

    def _on_rto(self) -> None:
        if self.snd_una == self.snd_nxt:
            return  # nothing outstanding
        self.timeouts += 1
        if self.obs is not None:
            self.obs.inc(f"transport.{self.node.name}.tx_timeouts")
        self.ssthresh = max((self.snd_nxt - self.snd_una) / 2.0, 2.0)
        self.cwnd = 1.0
        self.cwnd_stats.record(self.cwnd)
        self._dupacks = 0
        self._recover = -1
        self._timed_seq = None
        self._backoff = min(self._backoff * 2, 64)
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        self._send_segment(self.snd_una, retransmit=True)
        self.snd_nxt = self.snd_una + 1
        self._arm_rto()


class TcpReceiver:
    """Cumulative-ACK receiver that ACKs every received segment."""

    def __init__(self, sim: Simulator, node: "Node", flow_id: str, src: str) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.src = src
        self.rcv_next = 0
        # Segments received above ``rcv_next``: everything below it has
        # arrived, so these two say whether a segment is a duplicate.
        self._out_of_order: set[int] = set()
        self.segments_received = 0  # new (non-duplicate) segments: goodput
        self.bytes_received = 0
        self.duplicates = 0
        self.acks_sent = 0
        #: Telemetry registry (:mod:`repro.obs`) or None (guarded hooks).
        self.obs = None
        node.bind_agent(flow_id, self)

    def receive(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.TCP_DATA:
            return
        seq = packet.seq
        if seq < self.rcv_next or seq in self._out_of_order:
            self.duplicates += 1
        else:
            self.segments_received += 1
            self.bytes_received += packet.payload_bytes
            if self.obs is not None:
                obs = self.obs
                name = self.node.name
                obs.inc(f"transport.{name}.rx_packets")
                obs.inc(f"transport.{name}.rx_bytes", packet.payload_bytes)
            if seq == self.rcv_next:
                self.rcv_next += 1
                while self.rcv_next in self._out_of_order:
                    self._out_of_order.discard(self.rcv_next)
                    self.rcv_next += 1
            else:
                self._out_of_order.add(seq)
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            PacketKind.TCP_ACK,
            self.flow_id,
            self.node.name,
            self.src,
            ack=self.rcv_next,
            payload_bytes=0,
            created_at=self.sim.now,
        )
        self.acks_sent += 1
        self.node.send_packet(ack)

    def goodput_mbps(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.bytes_received * 8 / duration_us
