"""The streaming-vs-offline detection gate: golden equivalence, the diff
harness itself, and the ``repro detect diff`` CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.detect.diff import (
    DetectRun,
    canonical_event_lines,
    diff_detection,
    diff_fuzz_case,
    diff_golden_trace,
    diff_scenario_live,
    diff_trace_records,
    golden_trace_paths,
    run_offline,
    run_streaming,
    run_streaming_chunked,
)
from repro.core.detection.report import DetectionEvent
from repro.stats.trace import load_trace_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"


# --------------------------------------------------- golden equivalence ----


def test_every_committed_golden_trace_is_covered():
    paths = golden_trace_paths(GOLDEN_DIR)
    committed = {p.name for p in GOLDEN_DIR.glob("trace_*.jsonl")}
    assert {path.name for path in paths.values()} == committed


@pytest.mark.parametrize("name", sorted(golden_trace_paths(GOLDEN_DIR)))
def test_streaming_matches_offline_on_golden_trace(name):
    report = diff_golden_trace(name, golden_trace_paths(GOLDEN_DIR)[name])
    assert report.ok, "\n".join(report.problems)
    assert report.records > 0
    assert report.high_water <= report.bound


def test_live_scenario_diff_includes_the_tap_run():
    report = diff_scenario_live("grc_nav", duration_s=0.05)
    assert report.ok, "\n".join(report.problems)
    assert "live" in report.sources


@pytest.mark.parametrize("case_seed", range(3))
def test_fuzz_case_is_equivalent(case_seed):
    report = diff_fuzz_case(case_seed)
    assert report.ok, "\n".join(report.problems)


# ----------------------------------------------------- harness mechanics ----


@pytest.fixture(scope="module")
def records():
    return load_trace_jsonl(GOLDEN_DIR / golden_trace_paths(GOLDEN_DIR)["grc_nav"].name)


def test_offline_and_streaming_runs_fingerprint_identically(records):
    offline = run_offline(records)
    streaming = run_streaming(records)
    chunked = run_streaming_chunked(records)
    assert offline.event_lines == streaming.event_lines == chunked.event_lines
    assert offline.fingerprint == streaming.fingerprint == chunked.fingerprint
    # The whole point: bounded windows, not the whole trace.
    assert streaming.high_water < offline.high_water


def test_canonical_lines_are_order_independent():
    a = DetectionEvent(1.0, "nav", "monitor", "R1", "x")
    b = DetectionEvent(2.0, "impersonation", "monitor", "R2", "y")
    assert canonical_event_lines([a, b]) == canonical_event_lines([b, a])


def test_diff_reports_first_diverging_event(records):
    doctored = run_streaming(records)
    lines = list(doctored.event_lines)
    lines[0] = lines[0].replace("nav", "nva", 1)
    fake = DetectRun(
        source="streaming",
        event_lines=tuple(lines),
        records=doctored.records,
        high_water=doctored.high_water,
        bound=doctored.bound,
    )
    report = diff_trace_records(records, "doctored", extra_runs=(fake,))
    assert not report.ok
    assert any("diverge at canonical line" in p for p in report.problems)


def test_diff_flags_event_count_skew(records):
    truncated = run_streaming(records)
    fake = DetectRun(
        source="streaming",
        event_lines=truncated.event_lines[:-1],
        records=truncated.records,
        high_water=truncated.high_water,
        bound=truncated.bound,
    )
    report = diff_trace_records(records, "skewed", extra_runs=(fake,))
    assert any("event count differs" in p for p in report.problems)


def test_diff_flags_memory_bound_violation(records):
    run = run_streaming(records)
    bloated = DetectRun(
        source="streaming",
        event_lines=run.event_lines,
        records=run.records,
        high_water=run.bound + 1,
        bound=run.bound,
    )
    report = diff_trace_records(records, "bloated", extra_runs=(bloated,))
    assert any("memory bound violated" in p for p in report.problems)


def test_missing_golden_file_is_a_problem(tmp_path):
    reports = diff_detection(targets=["grc_nav"], golden_dir=tmp_path)
    golden_tier = [r for r in reports if r.kind == "golden"]
    assert golden_tier and not golden_tier[0].ok
    assert "missing golden trace" in golden_tier[0].problems[0]


def test_unknown_target_raises():
    with pytest.raises(KeyError, match="unknown detect diff target"):
        diff_detection(targets=["no_such_thing"], golden_dir=GOLDEN_DIR)


# ------------------------------------------------------------------- CLI ----


def test_cli_detect_diff_passes_on_named_targets(capsys):
    assert main(["detect", "diff", "grc_nav", "fault_jammer"]) == 0
    out = capsys.readouterr().out
    assert "streaming detection matches offline" in out


def test_cli_detect_diff_rejects_unknown_target(capsys):
    assert main(["detect", "diff", "no_such_target"]) == 2
    assert "unknown detect diff target" in capsys.readouterr().err


def test_cli_detect_diff_rejects_bad_fuzz_duration_before_any_target(capsys):
    assert main(["detect", "diff", "--fuzz-cases", "1", "--fuzz-duration", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        "fuzz_duration_s must be positive and finite, got -1.0"
    )


def test_cli_detect_diff_unknown_target_diffs_no_known_one(capsys, monkeypatch):
    import repro.detect.diff as diff

    diffed = []
    monkeypatch.setattr(
        diff, "diff_golden_trace", lambda name, *_a, **_k: diffed.append(name)
    )
    assert main(["detect", "diff", "grc_nav", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert diffed == []
    assert captured.out == ""
    assert "unknown detect diff target(s) ['nosuch']" in captured.err
