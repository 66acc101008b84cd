"""Network layer: nodes (protocol-stack containers), wired links, topologies.

A :class:`Node` owns at most one wireless MAC plus any number of wired links,
and forwards packets between them with static routes — enough to model a
hotspot AP relaying traffic between remote Internet hosts and WLAN clients
(the paper's Figure 15 scenario).
"""

from repro.net.node import Node
from repro.net.wired import WiredLink
from repro.net.scenario import Scenario

__all__ = ["Node", "WiredLink", "Scenario"]
