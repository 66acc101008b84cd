"""Offline (whole-trace) misbehavior analysis — the streaming reference.

Batch counterparts of the :mod:`repro.core.detection.streaming` detectors:
each analyzer takes a complete :class:`~repro.stats.trace.TraceRecord` list
and evaluates every frame with random access to the rest of the trace
(index scans, per-sender timelines, bisect lookups) instead of incremental
sliding windows.  The two implementations are deliberately **independent**
— different algorithms, different state — which is what makes the
equivalence gate in :mod:`repro.detect.diff` meaningful: a bug has to be
made twice, in two shapes, to slip through.

Semantics are those of the paper's detectors (NAV expectation rules of
Section VII-A; the omniscient impersonation view behind misbehavior 2) plus
the RTS-flood rule of the first attack-zoo entry.  Detection output is a
:class:`~repro.core.detection.report.DetectionReport`; event-identity with
the streaming pipeline is canonicalized through
:func:`repro.detect.diff.canonical_event_lines`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Sequence

from repro.core.detection.report import DetectionEvent, DetectionReport
from repro.core.detection.streaming import TRACE_OBSERVER
from repro.mac.frames import max_cts_nav, rts_duration
from repro.phy.params import PhyParams, dot11b

__all__ = [
    "analyze_trace",
    "offline_nav_events",
    "offline_impersonation_events",
    "offline_rts_flood_events",
]


def offline_nav_events(
    records: Sequence[Any],
    phy: PhyParams | None = None,
    observer: str = TRACE_OBSERVER,
    mtu_bytes: int = 1500,
    tolerance_us: float = 5.0,
) -> list[DetectionEvent]:
    """NAV-inflation detections over a complete trace.

    For every CTS the expectation comes from the *latest preceding* RTS
    addressed to its transmitter — looked up in a per-responder index of RTS
    positions built in one pre-pass (the streaming detector instead carries
    a live ``responder -> expectation`` table).  An RTS whose reservation
    (bounded by the MTU rule) has already expired yields the MTU fallback,
    matching the expiry semantics of the online table.
    """
    phy = phy if phy is not None else dot11b()
    rts_expected = rts_duration(phy, mtu_bytes)
    cts_fallback = max_cts_nav(phy, mtu_bytes)
    data_expected = phy.sifs + phy.ack_time
    # Pre-pass: trace positions of every RTS, indexed by the responder it
    # addresses.  Positions are trace indices, so "latest preceding" is a
    # bisect over indices even when timestamps collide.
    rts_index: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        if record.kind == "RTS":
            rts_index.setdefault(record.dst, []).append(i)
    events: list[DetectionEvent] = []
    for i, record in enumerate(records):
        kind = record.kind
        if kind == "RTS":
            expected = rts_expected
        elif kind == "CTS":
            expected = cts_fallback
            positions = rts_index.get(record.src)
            if positions:
                at = bisect_left(positions, i) - 1
                if at >= 0:
                    rts = records[positions[at]]
                    claimed = min(rts.nav_us, rts_expected)
                    if record.time_us <= rts.time_us + claimed + tolerance_us:
                        expected = max(0.0, claimed - phy.sifs - phy.cts_time)
        elif kind == "DATA":
            expected = data_expected
        else:
            expected = 0.0
        if record.nav_us > expected + tolerance_us:
            events.append(
                DetectionEvent(
                    record.time_us,
                    "nav",
                    observer,
                    record.src,
                    f"{kind} NAV {record.nav_us:.0f}us > expected {expected:.0f}us",
                )
            )
    return events


def offline_impersonation_events(
    records: Sequence[Any], observer: str = TRACE_OBSERVER
) -> list[DetectionEvent]:
    """Frames whose claimed source differs from the transmitting radio."""
    return [
        DetectionEvent(
            r.time_us,
            "impersonation",
            observer,
            r.sender,
            f"{r.kind} claims src {r.src}",
        )
        for r in records
        if r.src != r.sender
    ]


def offline_rts_flood_events(
    records: Sequence[Any],
    observer: str = TRACE_OBSERVER,
    window_us: float = 100_000.0,
    threshold: int = 12,
    cooldown_us: float = 100_000.0,
    max_window_frames: int = 4096,
) -> list[DetectionEvent]:
    """RTS-flood detections: excess unanswered RTS per sender and window.

    Builds one RTS and one DATA timeline per sender, then walks each
    sender's RTS timeline evaluating the window ``(t - window_us, t]`` with
    bisect — counting at most the last ``max_window_frames`` frames of each
    kind, which replicates the online detector's deque capacity.  The
    cooldown re-arm is a per-sender forward scan.
    """
    if window_us <= 0:
        raise ValueError(f"window_us must be positive, got {window_us}")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    rts_times: dict[str, list[float]] = {}
    data_times: dict[str, list[float]] = {}
    for record in records:
        if record.kind == "RTS":
            rts_times.setdefault(record.sender, []).append(record.time_us)
        elif record.kind == "DATA":
            data_times.setdefault(record.sender, []).append(record.time_us)

    def in_window(times: list[float], upto: int, now: float) -> int:
        """Frames in ``(now - window_us, now]`` among ``times[:upto]``,
        capped at the newest ``max_window_frames`` (the deque capacity)."""
        lo = bisect_right(times, now - window_us, 0, upto)
        return min(upto - lo, max_window_frames)

    events: list[DetectionEvent] = []
    for sender, timeline in rts_times.items():
        data = data_times.get(sender, [])
        rearm_at = 0.0
        for k, now in enumerate(timeline):
            excess = in_window(timeline, k + 1, now) - in_window(
                data, bisect_right(data, now), now
            )
            if excess <= threshold or now < rearm_at:
                continue
            rearm_at = now + cooldown_us
            events.append(
                DetectionEvent(
                    now,
                    "rts-flood",
                    observer,
                    sender,
                    f"{excess} unanswered RTS in {window_us:.0f}us window "
                    f"(threshold {threshold})",
                )
            )
    return events


def analyze_trace(
    records: Iterable[Any],
    phy: PhyParams | None = None,
    observer: str = TRACE_OBSERVER,
    nav_tolerance_us: float = 5.0,
    rts_flood_threshold: int = 12,
    rts_flood_window_us: float = 100_000.0,
    report: DetectionReport | None = None,
) -> DetectionReport:
    """Run every offline analyzer over a trace; aggregate one report.

    Parameter names and defaults match :func:`streaming.default_pipeline
    <repro.core.detection.streaming.default_pipeline>` exactly — the diff
    harness runs both from the same knob set.
    """
    records = list(records)
    report = report if report is not None else DetectionReport()
    all_events = (
        offline_nav_events(records, phy, observer, tolerance_us=nav_tolerance_us)
        + offline_impersonation_events(records, observer)
        + offline_rts_flood_events(
            records,
            observer,
            window_us=rts_flood_window_us,
            threshold=rts_flood_threshold,
        )
    )
    for event in all_events:
        if len(report.events) < report.max_events:
            report.events.append(event)
    return report
