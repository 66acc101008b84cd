"""CLI tests for ``repro campaign run/status/report``.

These drive ``main([...])`` end to end on a tiny TOML spec in a temp
directory, including the resume-after-interrupt path the issue calls out.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")

from repro.campaign import Manifest, PENDING, manifest_path
from repro.cli import main

SPEC_TOML = """\
[campaign]
name = "cli_small"
builder = "nav_pairs"
seeds = [1, 2]
duration_s = 0.2

[params]
transport = "udp"

[zip]
alpha = [0, 6]
nav_inflation_us = [0.0, 600.0]

[quick]
seeds = [1]
duration_s = 0.1
"""


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "small.toml"
    path.write_text(SPEC_TOML)
    return path


def run_cli(*argv):
    return main([str(arg) for arg in argv])


def test_run_status_report_cycle(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out, "--jobs", "2") == 0
    text = capsys.readouterr().out
    assert "executed 2, skipped 0, failed 0" in text
    assert manifest_path(out).name in text

    assert run_cli("campaign", "status", out) == 0
    text = capsys.readouterr().out
    assert "2/2 points done" in text
    assert "done" in text

    assert run_cli("campaign", "status", out, "--expect-complete") == 0
    capsys.readouterr()

    assert run_cli("campaign", "report", out) == 0
    text = capsys.readouterr().out
    assert "cli_small" in text
    assert "goodput_R0" in text and "alpha" in text


def test_run_resume_is_a_no_op(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("campaign", "run", spec_path, "--out", out, "--resume") == 0
    assert "executed 0, skipped 2" in capsys.readouterr().out


def test_resume_after_interrupt_runs_only_the_missing_point(
    spec_path, tmp_path, capsys
):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    # simulate an interrupt: one point never finished
    manifest = Manifest.load(manifest_path(out))
    victim = manifest.points[1]
    victim.status = PENDING
    victim.seeds_done = []
    victim.result = None
    manifest.save(manifest_path(out))
    capsys.readouterr()

    assert run_cli("campaign", "run", spec_path, "--out", out, "--resume") == 0
    assert "executed 1, skipped 1" in capsys.readouterr().out


def test_status_expect_complete_fails_on_partial_manifest(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    manifest = Manifest.load(manifest_path(out))
    manifest.points[0].status = PENDING
    manifest.save(manifest_path(out))
    capsys.readouterr()

    assert run_cli("campaign", "status", out, "--expect-complete") == 1
    captured = capsys.readouterr()
    assert "not complete" in captured.err
    assert "1/2 points done" in captured.out


def test_quick_mode_applies_overrides(spec_path, tmp_path, capsys):
    out = tmp_path / "quick"
    assert run_cli("campaign", "run", spec_path, "--quick", "--out", out) == 0
    assert "(quick)" in capsys.readouterr().out
    manifest = Manifest.load(manifest_path(out))
    assert manifest.seeds == [1]
    assert manifest.duration_s == 0.1


def test_resume_across_quick_and_full_is_refused(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--quick", "--out", out) == 0
    capsys.readouterr()
    assert run_cli("campaign", "run", spec_path, "--out", out, "--resume") == 2
    assert "spec" in capsys.readouterr().err


def test_run_missing_spec_exits_2(tmp_path, capsys):
    assert run_cli("campaign", "run", tmp_path / "absent.toml") == 2
    assert "not found" in capsys.readouterr().err


def test_run_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        '[campaign]\nname = "x"\nbuilder = "nope"\nseeds = [1]\nduration_s = 1.0\n'
    )
    assert run_cli("campaign", "run", bad) == 2
    assert "unknown builder" in capsys.readouterr().err


def test_status_without_manifest_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("campaign", "status", empty) == 2
    assert "no manifest" in capsys.readouterr().err


def test_run_with_failed_point_exits_1(tmp_path, capsys):
    spec = tmp_path / "failing.toml"
    spec.write_text(
        "[campaign]\n"
        'name = "failing"\nbuilder = "nav_pairs"\nseeds = [1]\nduration_s = 0.1\n'
        "[sweep]\n"
        'inflate_frames = [["CTS"], ["NOPE"]]\n'
    )
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec, "--out", out) == 1
    assert "failed 1" in capsys.readouterr().out
    capsys.readouterr()
    assert run_cli("campaign", "status", out, "--expect-complete") == 1


def test_report_formats_and_output_file(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    capsys.readouterr()

    assert run_cli("campaign", "report", out, "--format", "csv") == 0
    csv_text = capsys.readouterr().out
    header = csv_text.splitlines()[0].split(",")
    assert header[:2] == ["index", "point"]
    assert "alpha" in header and "goodput_R0" in header

    target = tmp_path / "report.json"
    assert run_cli("campaign", "report", out, "--format", "json", "-o", target) == 0
    assert str(target) in capsys.readouterr().out
    payload = json.loads(target.read_text())
    assert payload["name"] == "cli_small"
    assert len(payload["rows"]) == 2


def test_report_accepts_spec_path_as_target(spec_path, tmp_path, monkeypatch, capsys):
    # With no --out, artifacts land under results/campaigns/<name> relative
    # to the CWD; point both run and report at the spec file itself.
    monkeypatch.chdir(tmp_path)
    assert run_cli("campaign", "run", spec_path, "--quick") == 0
    capsys.readouterr()
    assert run_cli("campaign", "status", spec_path, "--quick") == 0
    assert "cli_small" in capsys.readouterr().out
    assert run_cli("campaign", "report", spec_path, "--quick") == 0
    assert "goodput_R0" in capsys.readouterr().out


def test_resume_with_lingering_failed_point_still_exits_1(tmp_path, capsys):
    # Exit status reflects the manifest, not just this invocation: a resume
    # that executes nothing but inherits a failed point must stay nonzero.
    spec = tmp_path / "failing.toml"
    spec.write_text(
        "[campaign]\n"
        'name = "failing"\nbuilder = "nav_pairs"\nseeds = [1]\nduration_s = 0.1\n'
        "[sweep]\n"
        'inflate_frames = [["CTS"], ["NOPE"]]\n'
    )
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec, "--out", out) == 1
    capsys.readouterr()
    assert run_cli("campaign", "run", spec, "--out", out, "--resume") == 1
    assert "failed" in capsys.readouterr().out


def test_status_surfaces_retries_and_last_failure(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    manifest = Manifest.load(manifest_path(out))
    manifest.points[0].retries = 2
    manifest.points[0].last_failure = "JobTimeoutError: watchdog killed worker"
    manifest.faults = {"pool_rebuilds": 1, "worker_kills": 1,
                      "degraded_to_serial": False}
    manifest.save(manifest_path(out))
    capsys.readouterr()

    assert run_cli("campaign", "status", out) == 0
    text = capsys.readouterr().out
    assert "retries" in text and "last failure" in text
    assert "JobTimeoutError: watchdog killed worker" in text
    assert "pool incidents: 1 rebuilds, 1 watchdog kills" in text


def test_run_accepts_retry_flags(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "campaign", "run", spec_path, "--quick", "--out", out,
        "--retries", "2", "--job-timeout", "30", "--backoff", "0.05",
    )
    assert code == 0
    assert "executed" in capsys.readouterr().out


def test_status_json_emits_machine_readable_document(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    capsys.readouterr()

    assert run_cli("campaign", "status", out, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "cli_small"
    assert doc["complete"] is True
    assert doc["total"] == doc["done"] == 2
    assert doc["failed"] == doc["pending"] == 0
    assert len(doc["points"]) == 2
    for point in doc["points"]:
        assert set(point) == {
            "index", "id", "status", "seeds_done", "retries", "last_failure",
        }
        assert point["status"] == "done"
        assert point["seeds_done"] == 2


def test_status_json_respects_expect_complete(spec_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("campaign", "run", spec_path, "--out", out) == 0
    manifest = Manifest.load(manifest_path(out))
    manifest.points[0].status = PENDING
    manifest.save(manifest_path(out))
    capsys.readouterr()

    assert run_cli("campaign", "status", out, "--json", "--expect-complete") == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # the document still comes out intact
    assert doc["complete"] is False
    assert "not complete" in captured.err
