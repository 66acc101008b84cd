"""Unit tests for frame tracing and goodput time series."""

import pytest

from repro.core.detection.offline import offline_impersonation_events
from repro.core.greedy import GreedyConfig
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.sim.engine import Simulator
from repro.stats.trace import (
    FrameTracer,
    GoodputSeries,
    attach_goodput_series,
    sparkline,
)


def traced_scenario(greedy=None, seed=1):
    s = Scenario(seed=seed)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node("R1", greedy=greedy)
    tracer = FrameTracer(s.medium)
    f0, k0 = s.udp_flow("S0", "R0")
    f1, k1 = s.udp_flow("S1", "R1")
    f0.start()
    f1.start()
    return s, tracer, (k0, k1)


def test_tracer_records_all_frame_kinds():
    s, tracer, _sinks = traced_scenario()
    s.run(0.3)
    kinds = {r.kind for r in tracer.records}
    assert kinds == {"RTS", "CTS", "DATA", "ACK"}
    assert len(tracer.records) == s.medium.frames_sent


def test_tracer_filters():
    s, tracer, _sinks = traced_scenario()
    s.run(0.3)
    cts = tracer.filter(kind="CTS")
    assert cts and all(r.kind == "CTS" for r in cts)
    from_s0 = tracer.filter(sender="S0")
    assert from_s0 and all(r.sender == "S0" for r in from_s0)
    late = tracer.filter(since_us=200_000.0)
    assert all(r.time_us >= 200_000.0 for r in late)


def test_tracer_catches_inflated_navs():
    config = GreedyConfig.nav_inflator(10_000.0, {FrameKind.CTS})
    s, tracer, _sinks = traced_scenario(greedy=config)
    s.run(0.3)
    inflated = tracer.filter(kind="CTS", min_nav=5_000.0)
    assert inflated
    assert all(r.sender == "R1" for r in inflated)


def test_tracer_sees_impersonations():
    s = Scenario(seed=2)
    s.add_wireless_node("NS", position=(0, 0))
    s.add_wireless_node("NR", position=(10, 0))
    s.add_wireless_node(
        "GR", position=(30, 0), greedy=GreedyConfig.ack_spoofer(victims={"NR"})
    )
    s.error_model.set_ber("NS", "NR", 8e-4)
    tracer = FrameTracer(s.medium)
    snd, _rcv = s.tcp_flow("NS", "NR")
    snd.start()
    s.run(1.0)
    fakes = offline_impersonation_events(tracer.records)
    assert fakes
    assert all(e.offender == "GR" and e.detail == "ACK claims src NR" for e in fakes)


def test_tracer_airtime_accounting():
    s, tracer, _sinks = traced_scenario()
    s.run(0.3)
    airtime = tracer.airtime_by_sender()
    total = sum(airtime.values())
    assert 0 < total <= 300_000.0  # cannot exceed wall-clock airtime


def test_tracer_detach_stops_recording():
    s, tracer, _sinks = traced_scenario()
    s.run(0.1)
    count = len(tracer.records)
    tracer.detach()
    s.run(0.1)
    assert len(tracer.records) == count


def test_tracer_bounded_memory():
    s, tracer, _sinks = traced_scenario()
    tracer.max_records = 10
    s.run(0.3)
    assert len(tracer.records) == 10
    assert tracer.dropped > 0


def test_trace_record_to_line():
    s, tracer, _sinks = traced_scenario()
    s.run(0.05)
    line = tracer.records[0].to_line()
    assert "RTS" in line or "DATA" in line
    assert "nav=" in line
    assert tracer.to_text(limit=3).count("\n") == 2


def test_goodput_series_windows():
    sim = Simulator()
    series = GoodputSeries(sim, window_us=1000.0)
    sim.schedule(100.0, series.record, 125)  # window 0
    sim.schedule(1500.0, series.record, 250)  # window 1
    sim.schedule(3500.0, series.record, 125)  # window 3 (window 2 empty)
    sim.run()
    samples = series.series()
    assert len(samples) == 4
    assert samples[0][1] == pytest.approx(1.0)  # 125 B over 1000 us = 1 Mbps
    assert samples[1][1] == pytest.approx(2.0)
    assert samples[2][1] == 0.0
    assert samples[3][1] == pytest.approx(1.0)


def test_goodput_series_rejects_bad_window():
    with pytest.raises(ValueError):
        GoodputSeries(Simulator(), window_us=0.0)


def test_attach_goodput_series_counts_only_goodput():
    s, _tracer, (k0, _k1) = traced_scenario()
    series = attach_goodput_series(s.sim, k0, window_us=100_000.0)
    s.run(0.5)
    samples = series.series()
    assert samples
    total_mbps_avg = sum(v for _t, v in samples) / len(samples)
    assert total_mbps_avg == pytest.approx(k0.goodput_mbps(500_000.0), rel=0.25)


def test_sparkline():
    assert sparkline([]) == ""
    flat = sparkline([0.0, 0.0, 0.0])
    assert set(flat) == {" "}
    line = sparkline([0.0, 1.0, 2.0, 4.0])
    assert len(line) == 4
    assert line[-1] == "@"
    # Downsampling keeps the requested width.
    assert len(sparkline(list(range(1000)), width=40)) == 40


def test_to_jsonl_roundtrip(tmp_path):
    import json

    s, tracer, _sinks = traced_scenario()
    s.run(0.2)
    assert tracer.records
    path = tmp_path / "sub" / "trace.jsonl"  # parent dir is created on demand
    written = tracer.to_jsonl(path)
    lines = path.read_text().splitlines()
    assert written == len(lines) == len(tracer.records)
    for line, record in zip(lines, tracer.records):
        assert json.loads(line) == record.to_dict()

    assert tracer.to_jsonl(path, limit=3) == 3
    assert len(path.read_text().splitlines()) == 3
