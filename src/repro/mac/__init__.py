"""IEEE 802.11 DCF MAC layer.

Implements the full DCF access cycle the paper's misbehaviors exploit:
virtual (NAV) + physical carrier sense, DIFS/EIFS deferral, slotted binary
exponential backoff with freeze/resume, optional RTS/CTS, SIFS-separated
responses, retry limits and contention-window doubling.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".frames": ("Frame", "FrameKind"),
    ".policy": ("ReceiverPolicy",),
    ".stats": ("MacStats",),
    ".dcf": ("DcfMac",),
    ".autorate": ("ArfRateController", "DOT11A_RATES", "DOT11B_RATES"),
})
