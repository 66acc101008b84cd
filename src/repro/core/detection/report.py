"""Shared detection bookkeeping for all GRC detectors, and the streaming
detector contract (:class:`StreamingDetector`)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class DetectionEvent:
    """One misbehavior detection."""

    time_us: float
    detector: str  # e.g. "nav", "rssi-spoof", "cross-layer", "fake-ack"
    observer: str  # node that detected
    offender: str  # node (or claimed node) the evidence points at
    detail: str = ""


@dataclass
class DetectionReport:
    """Accumulates detections across detectors and nodes for one run."""

    events: list[DetectionEvent] = field(default_factory=list)
    max_events: int = 100_000

    def record(
        self, time_us: float, detector: str, observer: str, offender: str, detail: str = ""
    ) -> None:
        if len(self.events) < self.max_events:
            self.events.append(
                DetectionEvent(time_us, detector, observer, offender, detail)
            )

    def count(self, detector: str | None = None, offender: str | None = None) -> int:
        return sum(
            1
            for e in self.events
            if (detector is None or e.detector == detector)
            and (offender is None or e.offender == offender)
        )

    def offenders(self, detector: str | None = None) -> Counter:
        """Detections per offender — the output an operator would act on."""
        return Counter(
            e.offender
            for e in self.events
            if detector is None or e.detector == detector
        )

    def __bool__(self) -> bool:
        return bool(self.events)


class StreamingDetector:
    """One incremental detector: feed events in, get detections out.

    Subclasses implement :meth:`feed` (and the state protocol); the base
    class pins down the contract:

    * ``feed(record)`` must be **chunking-invariant**: the emitted event
      sequence depends only on the records fed so far, never on call
      boundaries.
    * ``snapshot()`` returns plain JSON-able data; ``restore(state)`` on a
      fresh instance resumes the stream with identical future output.
    * ``state_size()`` (retained items) must never exceed ``bound()`` —
      the constant-memory promise the diff harness asserts.
    """

    #: Detector label used in emitted events (e.g. ``"nav"``).
    name: str = "streaming"

    def feed(self, record: Any) -> list[DetectionEvent]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        return {}

    def restore(self, state: dict[str, Any]) -> None:
        if state:
            raise ValueError(f"{type(self).__name__} expected empty state")

    def state_size(self) -> int:
        """Number of retained state items (window entries, table rows)."""
        return 0

    def bound(self) -> int:
        """Hard upper bound on :meth:`state_size` — the memory contract."""
        return 0
