"""Streaming detection pipeline: chunking invariance, state round-trips,
bounded memory, and the live tap's no-perturbation guarantee."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detection.nav import NavValidator
from repro.core.detection.streaming import (
    TRACE_OBSERVER,
    DetectionTap,
    StreamingDetectionPipeline,
    StreamingRtsFloodDetector,
    default_pipeline,
)
from repro.detect.diff import canonical_event_lines
from repro.net.scenario import Scenario
from repro.perf.golden import GOLDEN_TRACE_RUNS, trace_filename
from repro.phy.params import dot11b
from repro.stats.trace import FrameTracer, TraceRecord, load_trace_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def nav_records():
    """The densest committed trace: NAV inflation under active validators."""
    return load_trace_jsonl(GOLDEN_DIR / trace_filename("grc_nav"))


def _feed_in_chunks(records, cuts):
    """Feed ``records`` split at ``cuts`` with a JSON snapshot/restore and a
    fresh pipeline at every boundary; return the canonical event lines."""
    events = []
    pipeline = default_pipeline()
    position = 0
    for cut in [*sorted(cuts), len(records)]:
        for record in records[position:cut]:
            events.extend(pipeline.feed(record))
        position = cut
        state = json.loads(json.dumps(pipeline.snapshot()))
        resumed = default_pipeline()
        resumed.restore(state)
        pipeline = resumed
    return canonical_event_lines(events)


def test_one_event_at_a_time_equals_straight_feed(nav_records):
    straight = default_pipeline()
    straight.feed_many(nav_records)
    assert straight.events, "golden trace should produce detections"
    one_by_one = _feed_in_chunks(nav_records, range(1, len(nav_records)))
    assert one_by_one == canonical_event_lines(straight.events)


@given(cuts=st.sets(st.integers(min_value=0, max_value=457), max_size=12))
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_chunking_invariance_at_arbitrary_split_points(nav_records, cuts):
    straight = default_pipeline()
    straight.feed_many(nav_records)
    chunked = _feed_in_chunks(nav_records, {c for c in cuts if c <= len(nav_records)})
    assert chunked == canonical_event_lines(straight.events)


def test_snapshot_restore_round_trips_mid_stream(nav_records):
    half = len(nav_records) // 2
    pipeline = default_pipeline()
    pipeline.feed_many(nav_records[:half])
    state = pipeline.snapshot()
    assert state == json.loads(json.dumps(state)), "snapshot must be JSON-able"
    resumed = default_pipeline()
    resumed.restore(state)
    assert resumed.records_seen == half
    assert resumed.snapshot() == state


def test_restore_rejects_detector_count_mismatch():
    pipeline = default_pipeline()
    lone = StreamingDetectionPipeline([NavValidator(dot11b(), TRACE_OBSERVER)])
    with pytest.raises(ValueError, match="detector states"):
        lone.restore(pipeline.snapshot())


def test_memory_high_water_stays_within_bound(nav_records):
    pipeline = default_pipeline()
    pipeline.feed_many(nav_records)
    assert 0 < pipeline.high_water <= pipeline.bound()


def test_nav_detector_purges_expired_exchanges():
    detector = NavValidator(dot11b(), TRACE_OBSERVER)
    for i in range(50):
        detector.feed(
            TraceRecord(
                time_us=i * 100_000.0, sender=f"S{i}", kind="RTS",
                src=f"S{i}", dst=f"R{i}", nav_us=600.0,
                size_bytes=20, rate_mbps=None, airtime_us=248.0,
            )
        )
    # Each RTS expires (~600 us) long before the next feed purges the table.
    assert detector.state_size() <= 2


def test_flood_detector_windows_are_bounded():
    detector = StreamingRtsFloodDetector(max_window_frames=16)
    for i in range(1000):
        detector.feed(
            TraceRecord(
                time_us=float(i), sender="F", kind="RTS", src="F",
                dst="X", nav_us=30_000.0, size_bytes=20,
                rate_mbps=None, airtime_us=248.0,
            )
        )
    assert detector.state_size() <= detector.bound()
    assert len(detector._rts["F"]) <= 16


def test_flood_detector_validates_parameters():
    with pytest.raises(ValueError, match="window_us"):
        StreamingRtsFloodDetector(window_us=0.0)
    with pytest.raises(ValueError, match="threshold"):
        StreamingRtsFloodDetector(threshold=0)


def test_pipeline_requires_a_detector():
    with pytest.raises(ValueError, match="at least one"):
        StreamingDetectionPipeline([])


# ---------------------------------------------------------------- live tap --


def _golden_scenario(name="fig1_nav_udp"):
    from repro.perf.scenarios import get_scenario

    seed, _duration = GOLDEN_TRACE_RUNS[name]
    return get_scenario(name).build(seed).scenario


def test_tap_does_not_perturb_the_simulation():
    plain = _golden_scenario()
    plain_tracer = FrameTracer(plain.medium)
    plain.run(0.1)

    tapped = _golden_scenario()
    tapped.attach_streaming_detection()
    tapped_tracer = FrameTracer(tapped.medium)
    tapped.run(0.1)

    assert [r.to_line() for r in plain_tracer.records] == [
        r.to_line() for r in tapped_tracer.records
    ]


def test_live_tap_equals_replaying_the_trace():
    scenario = _golden_scenario()
    pipeline = scenario.attach_streaming_detection()
    tracer = FrameTracer(scenario.medium)
    scenario.run(0.1)
    assert pipeline.records_seen == len(tracer.records)

    replay = default_pipeline(scenario.phy)
    replay.feed_many(tracer.records)
    assert canonical_event_lines(pipeline.events) == canonical_event_lines(
        replay.events
    )


def test_attach_twice_raises():
    scenario = Scenario(seed=1)
    scenario.attach_streaming_detection()
    with pytest.raises(RuntimeError, match="already attached"):
        scenario.attach_streaming_detection()


def test_tap_detach_restores_transmit():
    scenario = Scenario(seed=1)
    original = scenario.medium.transmit
    pipeline = default_pipeline(scenario.phy)
    tap = DetectionTap(scenario.medium, pipeline)
    assert scenario.medium.transmit != original
    tap.detach()
    assert scenario.medium.transmit == original
