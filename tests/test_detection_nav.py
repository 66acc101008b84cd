"""Unit tests for the GRC NAV validator.

Every case runs both entry points of :class:`NavValidator`: the in-node
``observe_and_validate`` on each :class:`Frame`, and the streaming ``feed``
on the equivalent :class:`TraceRecord`.  They must flag the same frames with
the same events, reach the same corrected NAV and hold the same state.
"""

import pytest

from repro.core.detection import DetectionReport, NavValidator
from repro.mac.frames import (
    Frame,
    FrameKind,
    cts_duration_from_rts,
    max_cts_nav,
    rts_duration,
)
from repro.phy.params import MAX_NAV_US, dot11b
from repro.stats.trace import TraceRecord

PHY = dot11b()


class BothEntryPoints:
    """Two validators fed the same frames, one per entry point."""

    def __init__(self, report, **kwargs):
        self.in_node = NavValidator(PHY, "observer", report, **kwargs)
        self.stream = NavValidator(PHY, "observer", **kwargs)
        self.report = report

    @property
    def corrections(self):
        return self.in_node.corrections

    def observe_and_validate(self, frame, now, rssi_db):
        before = len(self.report.events)
        corrected = self.in_node.observe_and_validate(frame, now, rssi_db)
        assert self.in_node.state_size() <= self.in_node.bound()
        record = TraceRecord(
            time_us=now, sender=frame.src, kind=frame.kind.value, src=frame.src,
            dst=frame.dst, nav_us=frame.duration, size_bytes=frame.size_bytes,
            rate_mbps=None, airtime_us=0.0,
        )
        events = self.stream.feed(record)
        assert events == self.report.events[before:]
        # A NAV event's detail ends with the corrected value, rounded to 1 us.
        streamed = (
            float(events[0].detail.rsplit(" ", 1)[1].removesuffix("us"))
            if events
            else frame.duration
        )
        assert streamed == pytest.approx(corrected, abs=0.5)
        assert self.stream.snapshot() == self.in_node.snapshot()
        return corrected


def make_validator(**kwargs):
    report = DetectionReport()
    return BothEntryPoints(report, **kwargs), report


def test_honest_frames_pass_unchanged():
    validator, report = make_validator()
    rts = Frame(FrameKind.RTS, "s", "r", rts_duration(PHY, 1024), 20)
    assert validator.observe_and_validate(rts, 0.0, 10.0) == rts.duration
    cts = Frame(FrameKind.CTS, "r", "s", cts_duration_from_rts(PHY, rts.duration), 14)
    assert validator.observe_and_validate(cts, 500.0, 10.0) == cts.duration
    assert not report.events


def test_inflated_cts_clamped_exactly_when_rts_was_heard():
    validator, report = make_validator()
    rts = Frame(FrameKind.RTS, "s", "gr", rts_duration(PHY, 1024), 20)
    validator.observe_and_validate(rts, 0.0, 10.0)
    expected = cts_duration_from_rts(PHY, rts.duration)
    evil_cts = Frame(FrameKind.CTS, "gr", "s", float(MAX_NAV_US), 14)
    corrected = validator.observe_and_validate(evil_cts, 500.0, 10.0)
    assert corrected == pytest.approx(expected)
    assert report.count("nav", offender="gr") == 1


def test_inflated_cts_bounded_by_mtu_without_rts_context():
    validator, report = make_validator(mtu_bytes=1500)
    evil_cts = Frame(FrameKind.CTS, "gr", "s", float(MAX_NAV_US), 14)
    corrected = validator.observe_and_validate(evil_cts, 0.0, 10.0)
    assert corrected == pytest.approx(max_cts_nav(PHY, 1500))
    assert report.count("nav") == 1


def test_ack_nav_must_be_zero():
    validator, report = make_validator()
    evil_ack = Frame(FrameKind.ACK, "gr", "s", 20_000.0, 14)
    assert validator.observe_and_validate(evil_ack, 0.0, 10.0) == 0.0
    assert report.count("nav") == 1
    honest_ack = Frame(FrameKind.ACK, "r", "s", 0.0, 14)
    assert validator.observe_and_validate(honest_ack, 1.0, 10.0) == 0.0
    assert report.count("nav") == 1  # unchanged


def test_data_nav_bounded_by_sifs_plus_ack():
    validator, report = make_validator()
    evil_data = Frame(FrameKind.DATA, "gr", "s", 30_000.0, 1052)
    corrected = validator.observe_and_validate(evil_data, 0.0, 10.0)
    assert corrected == pytest.approx(PHY.sifs + PHY.ack_time)
    assert report.count("nav") == 1


def test_inflated_rts_bounded_by_mtu():
    validator, report = make_validator(mtu_bytes=1500)
    evil_rts = Frame(FrameKind.RTS, "gr", "gs", float(MAX_NAV_US), 20)
    corrected = validator.observe_and_validate(evil_rts, 0.0, 10.0)
    assert corrected == pytest.approx(rts_duration(PHY, 1500))
    assert report.count("nav") == 1


def test_cts_expectation_derived_from_inflated_rts_is_bounded():
    """An attacker cannot poison the validator by inflating the RTS first."""
    validator, report = make_validator(mtu_bytes=1500)
    evil_rts = Frame(FrameKind.RTS, "gr", "gs", float(MAX_NAV_US), 20)
    validator.observe_and_validate(evil_rts, 0.0, 10.0)
    evil_cts = Frame(FrameKind.CTS, "gs", "gr", float(MAX_NAV_US), 14)
    corrected = validator.observe_and_validate(evil_cts, 400.0, 10.0)
    assert corrected <= rts_duration(PHY, 1500)


def test_expectation_expires():
    validator, report = make_validator()
    rts = Frame(FrameKind.RTS, "s", "r", rts_duration(PHY, 100), 20)
    validator.observe_and_validate(rts, 0.0, 10.0)
    # Long after the exchange ended, the stored expectation no longer binds;
    # the validator falls back to the (larger) MTU bound.
    late_cts = Frame(FrameKind.CTS, "r", "s", max_cts_nav(PHY, 1500) - 1.0, 14)
    corrected = validator.observe_and_validate(late_cts, 1e9, 10.0)
    assert corrected == late_cts.duration
    assert report.count("nav") == 0


def test_tolerance_absorbs_small_deviation():
    validator, report = make_validator(tolerance_us=5.0)
    ack = Frame(FrameKind.ACK, "r", "s", 4.0, 14)
    assert validator.observe_and_validate(ack, 0.0, 10.0) == 4.0
    assert not report.events


def test_report_offender_accounting():
    validator, report = make_validator()
    for i in range(3):
        evil = Frame(FrameKind.ACK, "gr", "s", 20_000.0, 14)
        validator.observe_and_validate(evil, float(i), 10.0)
    assert report.offenders("nav")["gr"] == 3
    assert validator.corrections == 3
