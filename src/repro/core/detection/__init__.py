"""Greedy Receiver Countermeasure (GRC) — detection and mitigation (Sec. VII).

The scheme can run at any node; the more nodes run it, the higher the
likelihood of detection.  Components:

* :class:`NavValidator` — detects and corrects inflated NAV using overheard
  exchange state (exact expectation) or the 1500-byte MTU bound.  It is
  also the NAV detector of the streaming pipeline below.
* :class:`RssiSpoofDetector` — flags MAC ACKs whose RSSI deviates from the
  claimed receiver's median RSSI; the sender ignores flagged ACKs so MAC
  retransmission happens as it should.
* :class:`CrossLayerSpoofDetector` — for mobile clients with unstable RSSI:
  flags flows where TCP keeps retransmitting segments whose MAC ACK arrived.
* :class:`FakeAckDetector` — compares per-transmission MAC loss with probed
  application loss; fake ACKs make application loss far exceed
  ``MACLoss^(maxRetries+1)``.

Two additional flavors analyze **traces** rather than hooking the MAC:

* :mod:`repro.core.detection.streaming` — incremental, constant-memory
  detectors that consume :class:`~repro.stats.trace.TraceRecord` events one
  at a time (live via :class:`~repro.core.detection.streaming.DetectionTap`,
  or replayed from JSONL).
* :mod:`repro.core.detection.offline` — independent batch analyzers over
  complete traces; the reference the streaming pipeline is diffed against
  (:mod:`repro.detect.diff`).
"""

from repro.core.detection.report import DetectionEvent, DetectionReport
from repro.core.detection.nav import NavValidator
from repro.core.detection.spoof import CrossLayerSpoofDetector, RssiSpoofDetector
from repro.core.detection.fake import FakeAckDetector, ProbeResponder, Prober
from repro.core.detection.monitor import MisbehaviorMonitor, OffenderVerdict
from repro.core.detection.offline import analyze_trace
from repro.core.detection.streaming import (
    DetectionTap,
    StreamingDetectionPipeline,
    StreamingDetector,
    StreamingImpersonationDetector,
    StreamingRtsFloodDetector,
    default_pipeline,
)

__all__ = [
    "DetectionEvent",
    "DetectionReport",
    "NavValidator",
    "RssiSpoofDetector",
    "CrossLayerSpoofDetector",
    "FakeAckDetector",
    "Prober",
    "ProbeResponder",
    "MisbehaviorMonitor",
    "OffenderVerdict",
    "analyze_trace",
    "DetectionTap",
    "StreamingDetectionPipeline",
    "StreamingDetector",
    "StreamingImpersonationDetector",
    "StreamingRtsFloodDetector",
    "default_pipeline",
]
