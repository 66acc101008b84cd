"""The ``repro perf`` microbenchmark harness and its regression gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import (
    SCHEMA,
    check_regression,
    load_bench,
    run_benchmark,
    scenario_names,
    time_scenario,
    validate_bench,
    write_bench,
)
from repro.perf.scenarios import SCENARIOS, get_scenario

#: Tiny simulated duration so every harness test stays sub-second.
SMOKE_S = 0.02


def test_registered_scenarios_cover_the_canonical_figures():
    names = scenario_names()
    assert "fig1_nav_udp" in names
    assert "fig8_nav_tcp" in names
    assert "spoof_tcp" in names


def test_get_scenario_unknown_name_is_a_readable_error():
    with pytest.raises(KeyError, match="unknown perf scenario"):
        get_scenario("nope")


def test_time_scenario_shape_and_monotonic_fields():
    entry = time_scenario("fig1_nav_udp", seed=1, repeats=2, duration_s=SMOKE_S)
    assert entry["sim_duration_s"] == SMOKE_S
    assert len(entry["runs_s"]) == 2
    assert all(r > 0 for r in entry["runs_s"])
    assert entry["wall_s"] == min(entry["runs_s"])
    assert entry["events"] > 0
    assert entry["events_per_s"] > 0
    assert entry["metrics"], "determinism probe metrics missing"


def test_time_scenario_metrics_are_deterministic_across_repeats():
    a = time_scenario("fig1_nav_udp", seed=3, repeats=1, duration_s=SMOKE_S)
    b = time_scenario("fig1_nav_udp", seed=3, repeats=2, duration_s=SMOKE_S)
    assert a["metrics"] == b["metrics"]
    assert a["events"] == b["events"]


def test_run_benchmark_emits_schema_valid_document(tmp_path):
    bench = run_benchmark(seed=1, repeats=1, duration_s=SMOKE_S)
    assert bench["schema"] == SCHEMA
    assert set(bench["scenarios"]) == set(SCENARIOS)
    assert validate_bench(bench) == []
    path = write_bench(tmp_path / "BENCH_core.json", bench)
    assert validate_bench(load_bench(path)) == []


def test_validate_bench_rejects_nonsense():
    bench = run_benchmark(
        names=["fig1_nav_udp"], seed=1, repeats=1, duration_s=SMOKE_S
    )
    bad = json.loads(json.dumps(bench))
    bad["schema"] = "bench-core/999"
    bad["scenarios"]["fig1_nav_udp"]["wall_s"] = -1.0
    bad["scenarios"]["made_up"] = bad["scenarios"]["fig1_nav_udp"]
    problems = validate_bench(bad)
    assert any("schema" in p for p in problems)
    assert any("non-positive wall time" in p for p in problems)
    assert any("made_up" in p for p in problems)


def test_attach_speedup_and_check_regression():
    bench = run_benchmark(
        names=["fig1_nav_udp"], seed=1, repeats=1, duration_s=SMOKE_S
    )
    wall = bench["scenarios"]["fig1_nav_udp"]["wall_s"]
    fast_baseline = {"scenarios": {"fig1_nav_udp": {"wall_s": wall / 10.0}}}
    slow_baseline = {"scenarios": {"fig1_nav_udp": {"wall_s": wall * 10.0}}}
    # >2x slower than the (artificially fast) baseline -> regression.
    assert check_regression(bench, fast_baseline)
    assert check_regression(bench, slow_baseline) == []
    # Scenarios missing from the baseline never gate.
    assert check_regression(bench, {"scenarios": {}}) == []


def test_check_regression_failure_names_scenario_and_magnitude():
    """A regression message must say *which* scenario and *by how much*.

    A bare "regression detected" forces whoever is on CI duty to re-run the
    whole harness locally; the message is the diagnosis.
    """
    bench = {
        "scenarios": {
            "fig1_nav_udp": {"wall_s": 1.0, "events_per_s": 50_000.0},
            "spoof_tcp": {"wall_s": 0.1, "events_per_s": 90_000.0},
        }
    }
    baseline = {
        "scenarios": {
            "fig1_nav_udp": {"wall_s": 0.25, "events_per_s": 200_000.0},
            "spoof_tcp": {"wall_s": 0.09, "events_per_s": 95_000.0},
        }
    }
    problems = check_regression(bench, baseline)
    assert len(problems) == 1, "only the regressed scenario may be reported"
    message = problems[0]
    assert message.startswith("fig1_nav_udp: regressed 4.00x")
    assert "wall 1.000s vs baseline 0.250s" in message
    assert "limit 0.500s at factor 2" in message
    assert "50,000 events/s vs baseline 200,000" in message


def test_check_regression_failure_without_baseline_event_rate():
    """Old baseline files without events/s still produce a full message."""
    bench = {"scenarios": {"spoof_tcp": {"wall_s": 3.0}}}
    baseline = {"scenarios": {"spoof_tcp": {"wall_s": 1.0}}}
    (message,) = check_regression(bench, baseline)
    assert message.startswith("spoof_tcp: regressed 3.00x")
    assert "wall 3.000s vs baseline 1.000s" in message
    assert "events/s" not in message


def test_check_regression_reports_behaviour_drift_at_baseline_settings():
    """Same seed and duration: events and metrics must match exactly."""
    base_entry = {
        "wall_s": 1.0,
        "sim_duration_s": 2.0,
        "events": 33968,
        "metrics": {"goodput_R0": 0.036864, "goodput_R1": 3.465216},
    }
    baseline = {"seed": 1, "scenarios": {"fig1_nav_udp": base_entry}}
    assert check_regression({"seed": 1, "scenarios": {"fig1_nav_udp": base_entry}},
                            baseline) == []
    drifted = {
        **base_entry,
        "events": 33969,
        "metrics": {"goodput_R0": 0.036864, "goodput_R1": 3.5},
    }
    bench = {"seed": 1, "scenarios": {"fig1_nav_udp": drifted}}
    assert check_regression(bench, baseline) == [
        "fig1_nav_udp: events 33969 vs baseline 33968 (behaviour drift)",
        "fig1_nav_udp: metric goodput_R1 3.5 vs baseline 3.465216 (behaviour drift)",
    ]
    # Another seed or another duration legitimately changes both.
    assert check_regression({**bench, "seed": 2}, baseline) == []
    shorter = {**drifted, "sim_duration_s": SMOKE_S}
    assert check_regression({"seed": 1, "scenarios": {"fig1_nav_udp": shorter}},
                            baseline) == []


def test_committed_baseline_events_and_metrics_repeat_exactly():
    baseline = load_bench("benchmarks/perf/baseline.json")
    names = ["fig1_nav_udp", "fig8_nav_tcp", "spoof_tcp"]
    bench = run_benchmark(names=names, seed=baseline["seed"], repeats=1)
    assert check_regression(bench, baseline, factor=1e9) == []
    for name in names:
        assert bench["scenarios"][name]["events"] == baseline["scenarios"][name]["events"]


def test_cli_perf_regression_failure_is_diagnosable_from_stderr(tmp_path, capsys):
    out = tmp_path / "bench.json"
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "schema": SCHEMA,
                "scenarios": {"fig1_nav_udp": {"wall_s": 1e-9}},
            }
        )
    )
    rc = main(
        [
            "perf", "fig1_nav_udp", "--repeats", "1",
            "--duration", str(SMOKE_S),
            "-o", str(out),
            "--check-regression", str(baseline_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "REGRESSION fig1_nav_udp: regressed" in err
    assert "vs baseline 0.000s" in err


def test_cli_perf_writes_bench_core(tmp_path, capsys):
    out = tmp_path / "BENCH_core.json"
    rc = main(
        [
            "perf",
            "fig1_nav_udp",
            "--seed",
            "1",
            "--repeats",
            "1",
            "--duration",
            str(SMOKE_S),
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    bench = load_bench(out)
    assert validate_bench(bench) == []
    assert list(bench["scenarios"]) == ["fig1_nav_udp"]


def test_cli_perf_list(capsys):
    assert main(["perf", "--list"]) == 0
    assert "fig1_nav_udp" in capsys.readouterr().out


def test_cli_perf_unknown_scenario_exits_2():
    assert main(["perf", "not_a_scenario", "--duration", str(SMOKE_S)]) == 2


def test_cli_perf_check_regression_exit_codes(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(
        [
            "perf",
            "fig1_nav_udp",
            "--repeats",
            "1",
            "--duration",
            str(SMOKE_S),
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    measured = load_bench(out)["scenarios"]["fig1_nav_udp"]["wall_s"]

    def baseline_file(wall: float) -> str:
        path = tmp_path / f"baseline_{wall:.6f}.json"
        doc = {
            "schema": SCHEMA,
            "scenarios": {"fig1_nav_udp": {"wall_s": wall}},
        }
        path.write_text(json.dumps(doc))
        return str(path)

    common = [
        "perf",
        "fig1_nav_udp",
        "--repeats",
        "1",
        "--duration",
        str(SMOKE_S),
        "-o",
        str(tmp_path / "gated.json"),
    ]
    # Generous baseline: passes (exit 0) and writes the measured document.
    assert main(common + ["--check-regression", baseline_file(measured * 100)]) == 0
    assert validate_bench(load_bench(tmp_path / "gated.json")) == []
    # Hopeless baseline: the current run is >2x slower -> exit 1.
    assert main(common + ["--check-regression", baseline_file(measured / 100)]) == 1
    # Unreadable baseline -> usage error.
    assert main(common + ["--check-regression", str(tmp_path / "missing.json")]) == 2


def test_committed_baseline_is_valid_and_fresh_run_passes_gate():
    """The repo's committed baseline must gate a real (tiny) run cleanly.

    Uses a scaled allowance rather than the 2x default: this test runs a
    20 ms smoke while the baseline was measured at full duration, so only
    the document's structural validity and scenario names are asserted.
    """
    baseline = load_bench("benchmarks/perf/baseline.json")
    assert baseline["schema"] == SCHEMA
    assert set(baseline["scenarios"]) <= set(SCENARIOS)
    for entry in baseline["scenarios"].values():
        assert entry["wall_s"] > 0
