"""Transport layer: CBR/UDP and TCP Reno agents, plus end-to-end packets.

The paper evaluates every misbehavior under both UDP (constant-bit-rate
sources saturating the medium) and TCP (whose congestion control is what ACK
spoofing exploits).  Agents attach to :class:`repro.net.Node` instances and
exchange :class:`Packet` objects that ride as MAC-layer MSDUs.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".packets": ("Packet", "PacketKind"),
    ".udp": ("CbrSource", "UdpSink"),
    ".tcp": ("TcpSender", "TcpReceiver"),
})
