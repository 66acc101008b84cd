"""Network layer: nodes (protocol-stack containers), wired links, topologies.

A :class:`Node` owns at most one wireless MAC plus any number of wired links,
and forwards packets between them with static routes — enough to model a
hotspot AP relaying traffic between remote Internet hosts and WLAN clients
(the paper's Figure 15 scenario).
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".node": ("Node",),
    ".wired": ("WiredLink",),
    ".scenario": ("Scenario",),
})
