"""End-to-end packets carried as MAC MSDUs (and over wired links)."""

from __future__ import annotations

import enum

#: Bytes of TCP/IP (or UDP/IP) header added to each payload.
HEADER_BYTES = 40


class PacketKind(enum.Enum):
    UDP_DATA = "udp"
    TCP_DATA = "tcp-data"
    TCP_ACK = "tcp-ack"
    PROBE = "probe"
    PROBE_REPLY = "probe-reply"


class Packet:
    """One transport packet with end-to-end addressing.

    ``src``/``dst`` are *node names* of the original sender and the final
    destination; forwarding nodes (the AP in remote-sender scenarios) use them
    for routing while the MAC layer addresses each hop.
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "ack",
        "payload_bytes",
        "size_bytes",
        "created_at",
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: str,
        src: str,
        dst: str,
        seq: int = 0,
        ack: int = 0,
        payload_bytes: int = 0,
        created_at: float = 0.0,
    ) -> None:
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.ack = ack
        self.payload_bytes = payload_bytes
        #: On-the-wire size: payload plus transport/IP headers.
        self.size_bytes = payload_bytes + HEADER_BYTES
        self.created_at = created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.value} {self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} ack={self.ack} {self.payload_bytes}B)"
        )
