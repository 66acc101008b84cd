"""A node: container for a MAC, wired ports, routes, and transport agents."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.transport.packets import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.dcf import DcfMac
    from repro.net.wired import WiredLink


class Node:
    """One host or access point.

    Routing is static: ``add_wireless_route(dst, next_hop)`` sends packets for
    ``dst`` over the MAC addressed to ``next_hop``; ``add_wired_route`` sends
    them down a wired link.  A node with no route for a destination raises,
    which catches topology mistakes early.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.mac: "DcfMac | None" = None
        self._wireless_routes: dict[str, str] = {}
        self._wired_routes: dict[str, "WiredLink"] = {}
        self._agents: dict[str, Any] = {}
        self.forwarded = 0

    # ----------------------------------------------------------- wiring -----

    def attach_mac(self, mac: "DcfMac") -> None:
        """Install a wireless MAC and route its deliveries to this node."""
        self.mac = mac
        mac.on_deliver = self._receive

    def bind_agent(self, flow_id: str, agent: Any) -> None:
        """Register the transport agent that receives ``flow_id`` packets."""
        if flow_id in self._agents:
            raise ValueError(f"{self.name}: flow {flow_id!r} already bound")
        self._agents[flow_id] = agent

    def add_wireless_route(self, dst: str, next_hop: str | None = None) -> None:
        """Route packets for ``dst`` over the MAC (addressed to ``next_hop``)."""
        self._wireless_routes[dst] = next_hop if next_hop is not None else dst

    def add_wired_route(self, dst: str, link: "WiredLink") -> None:
        """Route packets for ``dst`` down a wired link."""
        self._wired_routes[dst] = link

    def _unlink(self) -> None:
        """Drop the agents and wired links, which point back at this node."""
        self._agents.clear()
        self._wired_routes.clear()

    # --------------------------------------------------------- forwarding ---

    def send_packet(self, packet: Packet) -> None:
        """Send or forward ``packet`` toward ``packet.dst``."""
        if packet.dst == self.name:
            self._deliver_local(packet)
            return
        link = self._wired_routes.get(packet.dst)
        if link is not None:
            link.transmit(packet, self)
            return
        next_hop = self._wireless_routes.get(packet.dst)
        if next_hop is None and packet.dst in self._agents:
            self._deliver_local(packet)
            return
        if next_hop is None:
            raise LookupError(f"{self.name}: no route to {packet.dst}")
        if self.mac is None:
            raise RuntimeError(f"{self.name}: wireless route but no MAC attached")
        self.mac.send(packet, next_hop, packet.size_bytes)

    def _receive(self, packet: Packet, mac_src: str) -> None:
        """A MAC or wired link handed us a packet."""
        if packet.dst != self.name:
            self.forwarded += 1
            self.send_packet(packet)
            return
        self._deliver_local(packet)

    def _deliver_local(self, packet: Packet) -> None:
        agent = self._agents.get(packet.flow_id)
        if agent is not None:
            agent.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name})"
