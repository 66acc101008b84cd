"""Streaming (online) misbehavior detection over frame-trace events.

The in-node GRC detectors of :mod:`spoof <repro.core.detection.spoof>` and
:mod:`fake <repro.core.detection.fake>` live inside the MAC and answer it
synchronously; the *offline* analysis path
(:mod:`repro.core.detection.offline`) sees a complete
:class:`~repro.stats.trace.TraceRecord` list after the run.  Neither scales
to watching production traffic continuously: the offline pass retains the
full trace, and a full trace grows without bound.

This module runs trace-level detection as a **streaming pipeline**: each
:class:`StreamingDetector` consumes one :class:`TraceRecord` at a time,
emits zero or more :class:`~repro.core.detection.report.DetectionEvent`\\ s,
and keeps only bounded sliding-window state — ``state_size()`` never exceeds
``bound()``, which the differential harness (:mod:`repro.detect.diff`)
asserts as a memory high-water mark.  Detector state is snapshottable to
plain JSON-able data, so a monitor can checkpoint/restore mid-stream and a
trace can be replayed in arbitrary chunks with identical output (the
chunking-invariance property test in tests/test_streaming_detection.py).
The NAV detector is the in-node
:class:`~repro.core.detection.nav.NavValidator` itself, fed trace records
instead of overheard frames.

The correctness contract is *event-identity with the offline analyzers* on
every trace: ``repro detect diff`` compares canonicalized event lines from
both implementations on the committed golden traces and on fuzzed
scenarios.

Live wiring: :class:`DetectionTap` wraps ``medium.transmit`` (the same seam
:class:`~repro.stats.trace.FrameTracer` uses) so the pipeline runs *during*
simulation without retaining records;
:meth:`~repro.net.scenario.Scenario.attach_streaming_detection` attaches
one to a scenario.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.core.detection.nav import NavValidator
from repro.core.detection.report import (
    DetectionEvent,
    DetectionReport,
    StreamingDetector,
)
from repro.phy.params import PhyParams, dot11b

__all__ = [
    "StreamingDetector",
    "StreamingImpersonationDetector",
    "StreamingRtsFloodDetector",
    "StreamingDetectionPipeline",
    "DetectionTap",
    "default_pipeline",
]

#: Observer name recorded by trace-level detectors: they watch the medium
#: itself (like the paper's "any node can run the scheme" monitor), not one
#: station's receptions.
TRACE_OBSERVER = "monitor"


class StreamingImpersonationDetector(StreamingDetector):
    """Frames whose claimed source differs from the transmitting radio.

    The streaming counterpart of
    :func:`~repro.core.detection.offline.offline_impersonation_events` —
    the omniscient view of misbehavior 2 (spoofed ACKs), usable wherever
    the monitor can attribute transmissions to radios (simulation, or a
    testbed sniffer with per-antenna attribution).  Stateless.
    """

    name = "impersonation"

    def __init__(self, observer: str = TRACE_OBSERVER) -> None:
        self.observer = observer

    def feed(self, record: Any) -> list[DetectionEvent]:
        if record.src != record.sender:
            return [
                DetectionEvent(
                    record.time_us,
                    self.name,
                    self.observer,
                    record.sender,
                    f"{record.kind} claims src {record.src}",
                )
            ]
        return []


class StreamingRtsFloodDetector(StreamingDetector):
    """RTS-flood detection: too many *unanswered* RTS in a sliding window.

    The attack (see :class:`repro.faults.rtsflood.RtsFloodConfig`) transmits
    RTS frames carrying a large NAV to a station that will never reply, so
    every overhearer defers for the claimed reservation while the flooder
    pays only the RTS airtime.  Honest senders also emit RTS bursts under
    contention, but theirs are followed by DATA; the discriminating
    statistic is therefore ``#RTS - #DATA`` per sender over a sliding
    window.  When the excess exceeds ``threshold`` the sender is flagged,
    then the alarm re-arms after ``cooldown_us`` (one detection per
    sustained burst, not one per frame).

    The threshold is the ROC sweep axis of the ``ext_rts_roc`` campaign:
    low thresholds catch slow floods but flag honest collision bursts
    (false positives), high thresholds are specific but slow.
    """

    name = "rts-flood"

    def __init__(
        self,
        observer: str = TRACE_OBSERVER,
        window_us: float = 100_000.0,
        threshold: int = 12,
        cooldown_us: float = 100_000.0,
        max_window_frames: int = 4096,
        max_tracked_senders: int = 1024,
    ) -> None:
        if window_us <= 0:
            raise ValueError(f"window_us must be positive, got {window_us}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.observer = observer
        self.window_us = window_us
        self.threshold = threshold
        self.cooldown_us = cooldown_us
        self.max_window_frames = max_window_frames
        self.max_tracked_senders = max_tracked_senders
        self._rts: dict[str, deque[float]] = {}
        self._data: dict[str, deque[float]] = {}
        self._rearm_at: dict[str, float] = {}

    def feed(self, record: Any) -> list[DetectionEvent]:
        kind = record.kind
        if kind not in ("RTS", "DATA"):
            return []
        now = record.time_us
        sender = record.sender
        table = self._rts if kind == "RTS" else self._data
        window = table.get(sender)
        if window is None:
            window = deque(maxlen=self.max_window_frames)
            table[sender] = window
        window.append(now)
        horizon = now - self.window_us
        self._trim(self._rts.get(sender), horizon)
        self._trim(self._data.get(sender), horizon)
        if kind != "RTS":
            return []
        rts_count = len(window)
        data_count = len(self._data.get(sender, ()))
        excess = rts_count - data_count
        if excess <= self.threshold:
            return []
        rearm = self._rearm_at.get(sender, 0.0)
        if now < rearm:
            return []
        self._rearm_at[sender] = now + self.cooldown_us
        return [
            DetectionEvent(
                now,
                self.name,
                self.observer,
                sender,
                f"{excess} unanswered RTS in {self.window_us:.0f}us window "
                f"(threshold {self.threshold})",
            )
        ]

    @staticmethod
    def _trim(window: deque | None, horizon: float) -> None:
        if window:
            while window and window[0] <= horizon:
                window.popleft()

    def snapshot(self) -> dict[str, Any]:
        return {
            "rts": {s: list(w) for s, w in self._rts.items() if w},
            "data": {s: list(w) for s, w in self._data.items() if w},
            "rearm_at": dict(self._rearm_at),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._rts = {
            s: deque(times, maxlen=self.max_window_frames)
            for s, times in state.get("rts", {}).items()
        }
        self._data = {
            s: deque(times, maxlen=self.max_window_frames)
            for s, times in state.get("data", {}).items()
        }
        self._rearm_at = dict(state.get("rearm_at", {}))

    def state_size(self) -> int:
        return (
            sum(len(w) for w in self._rts.values())
            + sum(len(w) for w in self._data.values())
            + len(self._rearm_at)
        )

    def bound(self) -> int:
        # Each sender holds at most two full windows plus one re-arm stamp.
        return self.max_tracked_senders * (2 * self.max_window_frames + 1)


class StreamingDetectionPipeline:
    """Fans one event stream out to several detectors; accumulates a report.

    Also tracks the **memory high-water mark** across all detectors — the
    number the diff harness asserts against the summed bounds, turning the
    constant-memory promise into a checkable invariant rather than a code
    comment.
    """

    def __init__(
        self,
        detectors: Iterable[StreamingDetector],
        report: DetectionReport | None = None,
    ) -> None:
        self.detectors = list(detectors)
        if not self.detectors:
            raise ValueError("pipeline needs at least one detector")
        self.report = report if report is not None else DetectionReport()
        self.records_seen = 0
        self.high_water = 0

    def feed(self, record: Any) -> list[DetectionEvent]:
        self.records_seen += 1
        emitted: list[DetectionEvent] = []
        for detector in self.detectors:
            emitted.extend(detector.feed(record))
        if emitted:
            events = self.report.events
            for event in emitted:
                if len(events) < self.report.max_events:
                    events.append(event)
        size = sum(d.state_size() for d in self.detectors)
        if size > self.high_water:
            self.high_water = size
        return emitted

    def feed_many(self, records: Iterable[Any]) -> None:
        for record in records:
            self.feed(record)

    @property
    def events(self) -> list[DetectionEvent]:
        return self.report.events

    def bound(self) -> int:
        return sum(d.bound() for d in self.detectors)

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint all detector state (not the accumulated report)."""
        return {
            "records_seen": self.records_seen,
            "detectors": [d.snapshot() for d in self.detectors],
        }

    def restore(self, state: dict[str, Any]) -> None:
        states = state.get("detectors", [])
        if len(states) != len(self.detectors):
            raise ValueError(
                f"snapshot has {len(states)} detector states, "
                f"pipeline has {len(self.detectors)}"
            )
        self.records_seen = int(state.get("records_seen", 0))
        for detector, detector_state in zip(self.detectors, states):
            detector.restore(detector_state)


def default_pipeline(
    phy: PhyParams | None = None,
    report: DetectionReport | None = None,
    nav_tolerance_us: float = 5.0,
    rts_flood_threshold: int = 12,
    rts_flood_window_us: float = 100_000.0,
) -> StreamingDetectionPipeline:
    """The standard trace-level detector set (NAV + impersonation + flood)."""
    return StreamingDetectionPipeline(
        [
            NavValidator(
                phy if phy is not None else dot11b(),
                TRACE_OBSERVER,
                tolerance_us=nav_tolerance_us,
            ),
            StreamingImpersonationDetector(),
            StreamingRtsFloodDetector(
                threshold=rts_flood_threshold, window_us=rts_flood_window_us
            ),
        ],
        report=report,
    )


class DetectionTap:
    """Feeds a pipeline live from ``medium.transmit`` — no trace retention.

    Same wrap seam as :class:`~repro.stats.trace.FrameTracer`, but the
    record is constructed, fed and dropped; memory stays bounded by the
    pipeline's windows however long the run.  The tap only *observes* (no
    RNG draws, no MAC interaction), so attaching it never changes the
    simulation — goodputs and traces are byte-identical with or without it.
    """

    def __init__(self, medium: Any, pipeline: StreamingDetectionPipeline) -> None:
        from repro.stats.trace import TraceRecord

        self.pipeline = pipeline
        self._record_cls = TraceRecord
        self._medium = medium
        self._original_transmit = medium.transmit
        medium.transmit = self._tapped_transmit

    def _tapped_transmit(self, sender: Any, frame: Any, duration: float) -> None:
        self.pipeline.feed(
            self._record_cls.of_transmit(self._medium.sim.now, sender, frame, duration)
        )
        self._original_transmit(sender, frame, duration)

    def detach(self) -> None:
        self._medium.transmit = self._original_transmit
