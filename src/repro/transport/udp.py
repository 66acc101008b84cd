"""Constant-bit-rate UDP traffic: source and goodput-counting sink.

The paper's UDP experiments use CBR flows "high enough to saturate the
medium", all at the same rate so that goodput differences are purely
MAC-layer effects (Section V).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.transport.packets import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Microseconds per second, for rate conversions.
US_PER_S = 1_000_000.0


class CbrSource:
    """Sends ``packet_size`` byte datagrams at a constant bit rate."""

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        flow_id: str,
        dst: str,
        rate_bps: float,
        packet_size: int = 1024,
        rng: "random.Random | None" = None,
        jitter_fraction: float = 0.1,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("CBR rate must be positive")
        if not 0 <= jitter_fraction < 1:
            raise ValueError("jitter fraction must be in [0, 1)")
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst = dst
        self.packet_size = packet_size
        self.interval_us = packet_size * 8 / rate_bps * US_PER_S
        # A little emission jitter prevents same-rate CBR sources that share
        # one MAC queue from phase-locking (one flow's packets always hitting
        # a full queue) — ns-2's CBR has the same ``random_`` knob.
        self.rng = rng
        self.jitter_fraction = jitter_fraction
        self.packets_generated = 0
        self._seq = 0
        self._stopped = False
        #: Telemetry registry (:mod:`repro.obs`) or None (guarded hooks).
        self.obs = None
        node.bind_agent(flow_id, self)

    def start(self, at: float = 0.0, stop_at: float | None = None) -> None:
        self._stop_at = stop_at
        self.sim.schedule_at(max(at, self.sim.now), self._emit)

    def stop(self) -> None:
        self._stopped = True

    def _emit(self) -> None:
        if self._stopped:
            return
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        packet = Packet(
            PacketKind.UDP_DATA,
            self.flow_id,
            self.node.name,
            self.dst,
            seq=self._seq,
            payload_bytes=self.packet_size,
            created_at=self.sim.now,
        )
        self._seq += 1
        self.packets_generated += 1
        if self.obs is not None:
            self.obs.inc(f"transport.{self.node.name}.tx_packets")
        self.node.send_packet(packet)
        interval = self.interval_us
        if self.rng is not None and self.jitter_fraction > 0:
            spread = self.jitter_fraction
            # rng.uniform(-spread, spread), evaluated as random.uniform does
            # it (a + (b - a) * random()) without the extra call.
            interval *= 1.0 + (-spread + (spread - -spread) * self.rng.random())
        # Never cancelled (stop() flips a flag checked on fire), so the
        # fire-and-forget scheduling fast path applies.
        self.sim.call_after(interval, self._emit)

    def receive(self, packet: Packet) -> None:  # sources ignore incoming traffic
        return


class BacklogSource:
    """Sends "as fast as possible" with backpressure, like a blocking socket.

    Keeps at most ``window`` of its own packets in the MAC queue and refills
    whenever one completes (success or drop).  This models an application
    saturating the link through a blocking UDP socket — the paper's "each AP
    sends traffic to its receiver as fast as possible" workloads — where a
    flow whose packets are *served faster* (e.g. because fake ACKs suppress
    backoff) also gets to inject more packets.
    """

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        flow_id: str,
        dst: str,
        packet_size: int = 1024,
        window: int = 2,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if node.mac is None:
            raise ValueError("BacklogSource requires a node with a MAC")
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst = dst
        self.packet_size = packet_size
        self.window = window
        self.packets_generated = 0
        self._seq = 0
        self._outstanding = 0
        self._started = False
        node.bind_agent(flow_id, self)
        self._chain_mac_callbacks()

    def _chain_mac_callbacks(self) -> None:
        mac = self.node.mac
        prev_sent, prev_dropped = mac.on_msdu_sent, mac.on_msdu_dropped

        def on_sent(payload: Packet, dst: str) -> None:
            if prev_sent is not None:
                prev_sent(payload, dst)
            self._completed(payload)

        def on_dropped(payload: Packet, dst: str) -> None:
            if prev_dropped is not None:
                prev_dropped(payload, dst)
            self._completed(payload)

        mac.on_msdu_sent = on_sent
        mac.on_msdu_dropped = on_dropped

    def start(self, at: float = 0.0) -> None:
        self._started = True
        self.sim.schedule_at(max(at, self.sim.now), self._fill)

    def _fill(self) -> None:
        while self._outstanding < self.window:
            packet = Packet(
                PacketKind.UDP_DATA,
                self.flow_id,
                self.node.name,
                self.dst,
                seq=self._seq,
                payload_bytes=self.packet_size,
                created_at=self.sim.now,
            )
            self._seq += 1
            self.packets_generated += 1
            self._outstanding += 1
            self.node.send_packet(packet)

    def _completed(self, payload: Packet) -> None:
        if getattr(payload, "flow_id", None) != self.flow_id:
            return
        self._outstanding -= 1
        if self._started:
            self._fill()

    def receive(self, packet: Packet) -> None:  # sources ignore incoming traffic
        return


class UdpSink:
    """Counts correctly received, non-duplicate datagrams (paper's goodput)."""

    def __init__(self, sim: Simulator, node: "Node", flow_id: str) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.packets_received = 0
        self.bytes_received = 0
        self.first_rx: float | None = None
        self.last_rx: float | None = None
        self._seen: set[int] = set()
        #: Telemetry registry (:mod:`repro.obs`) or None (guarded hooks).
        self.obs = None
        node.bind_agent(flow_id, self)

    def receive(self, packet: Packet) -> None:
        if packet.seq in self._seen:
            return  # duplicate at the transport layer: not goodput
        self._seen.add(packet.seq)
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        if self.obs is not None:
            obs = self.obs
            name = self.node.name
            obs.inc(f"transport.{name}.rx_packets")
            obs.inc(f"transport.{name}.rx_bytes", packet.payload_bytes)
        if self.first_rx is None:
            self.first_rx = self.sim.now
        self.last_rx = self.sim.now

    def goodput_mbps(self, duration_us: float) -> float:
        """Goodput in Mbps over a run of ``duration_us`` microseconds."""
        if duration_us <= 0:
            return 0.0
        return self.bytes_received * 8 / duration_us
