"""Telemetry layer (repro.obs): zero-cost-when-disabled and schema contracts.

The two non-negotiables from DESIGN.md §10:

* **Zero-write when disabled** — a disabled (or absent) registry is never
  wired into components, so a telemetry-off run performs literally zero
  registry mutations and the golden traces stay byte-identical.
* **Schema stability** — snapshots carry an explicit ``schema_version``,
  every key is ``layer.station.metric``, and the JSON round-trip is exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.scenario import Scenario
from repro.obs import (
    SCHEMA_VERSION,
    MetricsRegistry,
    TelemetrySnapshot,
    capture,
    current_registry,
    sweep_scenario,
    validate_snapshot,
)
from repro.perf.golden import GOLDEN_TRACE_RUNS, capture_trace, trace_filename

GOLDEN_DIR = Path(__file__).parent / "golden"


def _tiny_scenario(telemetry=None) -> Scenario:
    s = Scenario(seed=3, telemetry=telemetry)
    s.add_wireless_node("S0")
    s.add_wireless_node("R0")
    src, _sink = s.udp_flow("S0", "R0")
    src.start()
    return s


# ------------------------------------------------------- zero-cost contract --


def test_disabled_registry_sees_zero_writes():
    registry = MetricsRegistry(enabled=False)
    with capture(registry):
        s = _tiny_scenario()
        s.run(0.2)
    assert s.obs is None, "Scenario must refuse to wire a disabled registry"
    assert registry.writes == 0
    assert registry.scenarios == 0
    assert len(registry) == 0


def test_no_capture_means_no_registry():
    s = _tiny_scenario()
    assert current_registry() is None
    assert s.obs is None
    s.run(0.1)  # nothing to write to; must simply run


def test_telemetry_false_overrides_ambient_capture():
    registry = MetricsRegistry()
    with capture(registry):
        s = _tiny_scenario(telemetry=False)
        s.run(0.1)
    assert s.obs is None
    assert registry.writes == 0


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_RUNS))
def test_golden_traces_byte_identical_with_disabled_registry(name, tmp_path):
    """The pre-instrumentation code path survives an ambient disabled registry."""
    registry = MetricsRegistry(enabled=False)
    replay = tmp_path / trace_filename(name)
    with capture(registry):
        records = capture_trace(name, replay)
    assert records > 100
    assert registry.writes == 0
    assert replay.read_bytes() == (GOLDEN_DIR / trace_filename(name)).read_bytes()


def test_enabled_run_is_equivalent_to_disabled_run(tmp_path):
    """Telemetry hooks observe; they must never perturb the simulation."""
    name = "fig1_nav_udp"
    on_path = tmp_path / "on.jsonl"
    with capture(MetricsRegistry()) as registry:
        capture_trace(name, on_path)
    assert registry.writes > 0
    assert on_path.read_bytes() == (GOLDEN_DIR / trace_filename(name)).read_bytes()


# ----------------------------------------------------------- enabled content --


def test_enabled_registry_collects_per_station_layer_metrics():
    registry = MetricsRegistry()
    with capture(registry):
        s = _tiny_scenario()
        s.run(0.3)
    assert s.obs is registry
    assert registry.scenarios == 1
    snapshot = registry.snapshot(seed=3)
    assert validate_snapshot(snapshot) == []
    assert {"mac", "phy", "sim", "transport"} <= set(snapshot.layers())
    assert {"S0", "R0", "engine", "medium"} <= set(snapshot.stations())
    # Live counters and swept gauges both present, with plausible content.
    assert snapshot.counters["transport.S0.tx_packets"] > 0
    assert snapshot.gauges["sim.engine.events_processed"] > 0
    assert snapshot.gauges["phy.medium.frames_sent"] > 0
    assert snapshot.gauges["mac.S0.tx_data"] > 0
    assert snapshot.meta["scenarios"] == 1
    assert snapshot.meta["seed"] == 3


def test_sweep_is_idempotent_across_runs():
    """Gauges use set semantics: running twice must not double-count."""
    registry = MetricsRegistry()
    with capture(registry):
        s = _tiny_scenario()
        s.run(0.2)
        first = dict(registry.gauges)
        s.run(0.2)  # continue the same simulation
    assert registry.gauges["phy.medium.frames_sent"] >= first["phy.medium.frames_sent"]
    # The sweep replaced, not accumulated: sweeping again changes nothing.
    before = dict(registry.gauges)
    sweep_scenario(registry, s)
    assert registry.gauges == before


def test_capture_nests_innermost_wins():
    outer, inner = MetricsRegistry(), MetricsRegistry()
    with capture(outer):
        with capture(inner):
            s = _tiny_scenario()
            s.run(0.1)
    assert s.obs is inner
    assert inner.writes > 0
    assert outer.writes == 0


# ------------------------------------------------------------ snapshot schema --


def test_snapshot_json_round_trip():
    registry = MetricsRegistry()
    registry.inc("mac.S0.tx_data", 4)
    registry.gauge("sim.engine.events_processed", 123.0)
    registry.observe("transport.S0.rtt_us", 1500.0)
    registry.observe("transport.S0.rtt_us", 1500.0)
    snapshot = registry.snapshot(seed=7)
    assert validate_snapshot(snapshot) == []
    restored = TelemetrySnapshot.from_json(snapshot.to_json(indent=2))
    assert restored.to_dict() == snapshot.to_dict()
    assert restored.histograms["transport.S0.rtt_us"] == {"1500.0": 2}


def test_snapshot_rejects_unknown_schema_version():
    doc = TelemetrySnapshot().to_dict()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        TelemetrySnapshot.from_dict(doc)


def test_validate_snapshot_flags_malformed_keys():
    bad = TelemetrySnapshot(
        counters={"notakey": 1.0},
        gauges={"mac.S0.ok": 2.0, "mac.S0.bad": "nan"},  # type: ignore[dict-item]
        histograms={"x.y": {1.5: 2}},  # type: ignore[dict-item]
    )
    problems = validate_snapshot(bad)
    assert any("notakey" in p for p in problems)
    assert any("mac.S0.bad" in p for p in problems)
    assert any("x.y" in p for p in problems)


_key = st.from_regex(r"[a-z]{1,6}\.[A-Z][0-9]\.[a-z_]{1,10}", fullmatch=True)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["inc", "gauge", "observe"]),
            _key,
            st.floats(
                min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False
            ),
        ),
        max_size=60,
    )
)
def test_registry_write_count_and_snapshot_validity(ops):
    """Every mutation is counted, and any well-formed key set validates."""
    registry = MetricsRegistry()
    for op, key, value in ops:
        getattr(registry, op)(key, value)
    assert registry.writes == len(ops)
    snapshot = registry.snapshot()
    assert validate_snapshot(snapshot) == []
    assert TelemetrySnapshot.from_json(snapshot.to_json()).to_dict() == (
        snapshot.to_dict()
    )


# ------------------------------------------------------------------ CLI smoke --


def test_cli_metrics_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "metrics.json"
    code = main(
        [
            "metrics",
            "fig1_nav_udp",
            "--duration",
            "0.05",
            "--format",
            "json",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    snapshot = TelemetrySnapshot.from_dict(doc)
    assert validate_snapshot(snapshot) == []
    assert snapshot.gauges["sim.engine.events_processed"] > 0


def test_cli_metrics_rejects_unknown_target(capsys):
    from repro.cli import main

    assert main(["metrics", "no_such_thing"]) == 2
    assert "perf scenario" in capsys.readouterr().err


# ---------------------------------------------------- fleet aggregation -----


def _snap(counters=None, gauges=None, histograms=None):
    return TelemetrySnapshot(
        counters=dict(counters or {}),
        gauges=dict(gauges or {}),
        histograms={k: dict(v) for k, v in (histograms or {}).items()},
    )


def test_merge_snapshots_sums_every_section():
    from repro.obs import merge_snapshots

    merged = merge_snapshots(
        [
            _snap(
                counters={"mac.S0.tx_data": 3.0},
                gauges={"sim.engine.events_processed": 10.0},
                histograms={"transport.S0.rtt_us": {"1500.0": 2}},
            ),
            _snap(
                counters={"mac.S0.tx_data": 2.0, "mac.S1.tx_data": 7.0},
                gauges={"sim.engine.events_processed": 5.0},
                histograms={"transport.S0.rtt_us": {"1500.0": 1, "2000.0": 4}},
            ),
        ]
    )
    assert merged.counters == {"mac.S0.tx_data": 5.0, "mac.S1.tx_data": 7.0}
    assert merged.gauges == {"sim.engine.events_processed": 15.0}
    assert merged.histograms == {
        "transport.S0.rtt_us": {"1500.0": 3, "2000.0": 4}
    }
    assert merged.meta == {"merged_from": 2}
    assert validate_snapshot(merged) == []


def test_merge_snapshots_is_order_independent():
    from repro.obs import merge_snapshots

    parts = [
        _snap(counters={"mac.S0.tx_data": 1.0}),
        _snap(counters={"mac.S0.tx_data": 4.0}, gauges={"sim.e.x": 2.0}),
        _snap(histograms={"transport.S0.rtt_us": {"100.0": 1}}),
    ]
    forward = merge_snapshots(parts)
    backward = merge_snapshots(list(reversed(parts)))
    assert forward.to_dict() == backward.to_dict()


def test_merge_snapshots_refuses_empty_and_mixed_schema():
    from repro.obs import merge_snapshots

    with pytest.raises(ValueError, match="zero"):
        merge_snapshots([])
    drifted = _snap(counters={"mac.S0.tx_data": 1.0})
    drifted.schema_version = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        merge_snapshots([_snap(), drifted])
