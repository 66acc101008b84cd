"""The paper's contribution: greedy-receiver misbehaviors and their detection.

* :mod:`repro.core.greedy` — the three misbehaviors of Section IV as a
  :class:`repro.mac.policy.ReceiverPolicy`: NAV inflation, ACK spoofing, and
  fake ACKs, each gated by a configurable greedy percentage.
* :mod:`repro.core.detection` — the Greedy Receiver Countermeasure (GRC) of
  Section VII: NAV validation, RSSI-based and cross-layer spoofed-ACK
  detection, and the MAC-vs-application loss check for fake ACKs.
* :mod:`repro.core.model` — the analytic sending-probability model of
  Equations (1)-(2) (Section V-A).
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".greedy": ("GreedyConfig", "GreedyReceiverPolicy"),
    ".detection": (
        "NavValidator", "RssiSpoofDetector", "CrossLayerSpoofDetector",
        "FakeAckDetector", "DetectionEvent", "DetectionReport",
    ),
    ".model": ("backoff_pmf", "sending_probabilities", "sending_ratio"),
})
