"""Physical-layer substrate: timing parameters, airtime, propagation, medium.

The PHY models what the paper's ns-2 setup provides: 802.11b (11 Mbps) and
802.11a (6 Mbps) timing, a broadcast medium with communication and
interference ranges, the capture effect, and independent-bit-error frame
corruption.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".params": ("PhyParams", "dot11a", "dot11b"),
    ".error": ("frame_error_rate", "BitErrorModel"),
    ".propagation": ("PathLossModel",),
    ".medium": ("Medium", "Radio"),
})
