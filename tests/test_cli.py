"""Tests for the command-line interface."""

import argparse
import socket
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]



def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out
    assert "table9" in out
    assert "ext_autorate" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_quick_experiment(capsys):
    assert main(["run", "table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "fer_tcp_data" in out


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["run", "table3", "--quick", "-o", str(target)]) == 0
    assert "Table III" in target.read_text()
    assert str(target) in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["nav", "spoof", "fake"])
def test_demo_runs(kind, capsys):
    assert main(["demo", kind, "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "victim" in out
    assert "attacker" in out
    assert "|" in out  # sparkline rendered


def test_demo_nav_with_grc_reports_offender(capsys):
    assert main(["demo", "nav", "--grc", "--duration", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "detections" in out
    assert "GR" in out


def test_demo_attack_works_without_grc(capsys):
    assert main(["demo", "nav", "--duration", "1.0", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    victim_line = next(line for line in out.splitlines() if "victim" in line)
    attacker_line = next(line for line in out.splitlines() if "attacker" in line)
    victim_mbps = float(victim_line.split()[1])
    attacker_mbps = float(attacker_line.split()[1])
    assert attacker_mbps > 5 * max(victim_mbps, 1e-3)


# ------------------------------------------------------- parser surface --

#: ``(dest, option_strings, default, type name, choices, nargs, required)``
#: of every action, per subcommand path: the command line's public surface.
#: Restructuring ``build_parser`` (shared parent parsers, helpers) must leave
#: every subcommand, flag, default, type, choice set and nargs as it is.
_SURFACE = {
    '': [
        ('command', (), None, None, ['campaign', 'chaos', 'demo', 'detect', 'fleet', 'list', 'metrics', 'perf', 'run', 'trace'], 'A...', True),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
    ],
    'campaign': [
        ('campaign_command', (), None, None, ['report', 'run', 'status'], 'A...', True),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
    ],
    'campaign report': [
        ('format', ('--format',), 'text', None, ['text', 'csv', 'json'], None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('target', (), None, None, None, None, True),
    ],
    'campaign run': [
        ('backoff', ('--backoff',), None, 'float', None, None, False),
        ('cache_dir', ('--cache-dir',), None, None, None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('job_timeout', ('--job-timeout',), None, 'float', None, None, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('no_cache', ('--no-cache',), False, None, None, 0, False),
        ('out', ('--out',), None, None, None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('resume', ('--resume',), False, None, None, 0, False),
        ('retries', ('--retries',), None, 'int', None, None, False),
        ('spec', (), None, None, None, None, True),
        ('telemetry', ('--telemetry',), False, None, None, 0, False),
        ('verbose', ('-v', '--verbose'), False, None, None, 0, False),
    ],
    'campaign status': [
        ('expect_complete', ('--expect-complete',), False, None, None, 0, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('json', ('--json',), False, None, None, 0, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('target', (), None, None, None, None, True),
    ],
    'chaos': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('keep', ('--keep',), None, None, None, None, False),
        ('list', ('--list',), False, None, None, 0, False),
        ('profile', ('--profile',), 'quick', None, None, None, False),
        ('verbose', ('-v', '--verbose'), False, None, None, 0, False),
    ],
    'demo': [
        ('duration', ('--duration',), 2.0, 'float', None, None, False),
        ('grc', ('--grc',), False, None, None, 0, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('kind', (), None, None, ['nav', 'spoof', 'fake'], None, True),
        ('seed', ('--seed',), 7, 'int', None, None, False),
    ],
    'detect': [
        ('detect_command', (), None, None, ['diff'], 'A...', True),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
    ],
    'detect diff': [
        ('fuzz_cases', ('--fuzz-cases',), None, 'int', None, None, False),
        ('fuzz_duration', ('--fuzz-duration',), 0.05, 'float', None, None, False),
        ('golden_dir', ('--golden-dir',), None, None, None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('targets', (), None, None, None, '*', True),
    ],
    'fleet': [
        ('fleet_command', (), None, None, ['cancel', 'run', 'serve', 'status', 'submit', 'worker'], 'A...', True),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
    ],
    'fleet cancel': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('job', (), None, None, None, None, True),
        ('url', ('--url',), None, None, None, None, True),
    ],
    'fleet run': [
        ('executor', ('--executor',), 'subprocess', None, None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('max_parallel_shards', ('--max-parallel-shards',), None, 'int', None, None, False),
        ('max_shard_attempts', ('--max-shard-attempts',), 3, 'int', None, None, False),
        ('out', ('--out',), None, None, None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('shards', ('--shards',), 2, 'int', None, None, False),
        ('spec', (), None, None, None, None, True),
        ('verbose', ('-v', '--verbose'), False, None, None, 0, False),
    ],
    'fleet serve': [
        ('executor', ('--executor',), 'subprocess', None, None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('host', ('--host',), '127.0.0.1', None, None, None, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('max_parallel_shards', ('--max-parallel-shards',), None, 'int', None, None, False),
        ('max_queue', ('--max-queue',), 16, 'int', None, None, False),
        ('max_running', ('--max-running',), 2, 'int', None, None, False),
        ('port', ('--port',), 8642, 'int', None, None, False),
        ('root', ('--root',), 'results/fleet', None, None, None, False),
    ],
    'fleet status': [
        ('expect_complete', ('--expect-complete',), False, None, None, 0, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('json', ('--json',), False, None, None, 0, False),
        ('target', (), None, None, None, '?', False),
        ('url', ('--url',), None, None, None, None, False),
    ],
    'fleet submit': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('priority', ('--priority',), 0, 'int', None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('shards', ('--shards',), 2, 'int', None, None, False),
        ('spec', (), None, None, None, None, True),
        ('timeout', ('--timeout',), 600.0, 'float', None, None, False),
        ('url', ('--url',), None, None, None, None, True),
        ('wait', ('--wait',), False, None, None, 0, False),
    ],
    'fleet worker': [
        ('cache_dir', ('--cache-dir',), None, None, None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('n_shards', ('--n-shards',), None, 'int', None, None, True),
        ('out', ('--out',), None, None, None, None, True),
        ('shard', ('--shard',), None, 'int', None, None, True),
        ('spec', ('--spec',), None, None, None, None, True),
    ],
    'list': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('tag', ('--tag',), None, None, None, None, False),
    ],
    'metrics': [
        ('duration', ('--duration',), None, 'float', None, None, False),
        ('format', ('--format',), 'table', None, ['table', 'json'], None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('seed', ('--seed',), 1, 'int', None, None, False),
        ('target', (), None, None, None, None, True),
    ],
    'perf': [
        ('channel', ('--channel',), None, None, None, None, False),
        ('check_regression', ('--check-regression',), None, None, None, None, False),
        ('duration', ('--duration',), None, 'float', None, None, False),
        ('factor', ('--factor',), None, 'float', None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('list', ('--list',), False, None, None, 0, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('repeats', ('--repeats',), 3, 'int', None, None, False),
        ('scenarios', (), None, None, None, '*', True),
        ('seed', ('--seed',), 1, 'int', None, None, False),
        ('telemetry', ('--telemetry',), False, None, None, 0, False),
    ],
    'run': [
        ('cache_dir', ('--cache-dir',), None, None, None, None, False),
        ('channel', ('--channel',), None, None, None, None, False),
        ('experiment', (), None, None, None, None, True),
        ('format', ('--format',), 'text', None, ['text', 'json'], None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('jobs', ('--jobs',), 1, 'int', None, None, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('quick', ('--quick',), False, None, None, 0, False),
        ('telemetry', ('--telemetry',), False, None, None, 0, False),
    ],
    'trace': [
        ('duration', ('--duration',), None, 'float', None, None, False),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, 0, False),
        ('limit', ('--limit',), None, 'int', None, None, False),
        ('output', ('-o', '--output'), None, None, None, None, False),
        ('seed', ('--seed',), 1, 'int', None, None, False),
        ('target', (), None, None, None, None, True),
    ],
}


def _surface(parser, path=()):
    rows, table = [], {}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(_surface(child, path + (name,)))
            choices = sorted(choices)
        elif choices is not None:
            choices = list(choices)
        type_name = getattr(action.type, "__name__", None) if action.type else None
        rows.append(
            (
                action.dest,
                tuple(action.option_strings),
                action.default,
                type_name,
                choices,
                action.nargs,
                action.required,
            )
        )
    table[" ".join(path)] = sorted(rows, key=repr)
    return table


def test_parser_surface_is_unchanged():
    assert _surface(build_parser()) == _SURFACE


# ----------------------------------------------------------- error exits --


def _first_err_line(capsys) -> str:
    return capsys.readouterr().err.splitlines()[0]


def test_trace_unknown_scenario_exits_2(capsys):
    assert main(["trace", "nosuch"]) == 2
    assert _first_err_line(capsys).startswith("unknown perf scenario 'nosuch'")


def test_trace_negative_duration_exits_2(capsys):
    assert main(["trace", "fig1_nav_udp", "--duration", "-1"]) == 2
    assert _first_err_line(capsys) == "duration_s must be positive and finite, got -1.0"


def test_chaos_unknown_profile_exits_2(capsys):
    assert main(["chaos", "--profile", "nosuch"]) == 2
    assert _first_err_line(capsys) == "unknown chaos profile 'nosuch'; known: ['full', 'quick']"


def test_run_unknown_channel_exits_2(capsys):
    assert main(["run", "fig1", "--quick", "--channel", "nosuch"]) == 2
    assert _first_err_line(capsys) == (
        "unknown channel model 'nosuch'; known models: ['pairwise', 'sinr']"
    )


def test_fleet_worker_missing_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "missing.json"
    argv = ["fleet", "worker", "--spec", str(spec), "--out", str(tmp_path / "out")]
    assert main(argv + ["--shard", "0", "--n-shards", "1"]) == 2
    assert _first_err_line(capsys).startswith(f"unreadable fleet spec {spec}: ")


def test_fleet_submit_to_closed_port_exits_2(capsys):
    pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}"
    spec = REPO / "examples" / "campaigns" / "fig1_nav_udp.toml"
    assert main(["fleet", "submit", str(spec), "--url", url, "--quick"]) == 2
    assert _first_err_line(capsys).startswith(f"{url}/jobs: ")


CSV_SPEC_TOML = """\
[campaign]
name = "cli_csv"
builder = "nav_pairs"
seeds = [1]
duration_s = 0.05

[params]
inflate_frames = ["CTS", "ACK"]

[sweep]
nav_inflation_us = [0.0, 600.0]
"""


@pytest.fixture()
def csv_campaign(tmp_path, capsys):
    pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")
    spec = tmp_path / "csv.toml"
    spec.write_text(CSV_SPEC_TOML)
    out = tmp_path / "out"
    assert main(["campaign", "run", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_campaign_report_csv_equals_results_csv(csv_campaign, capsys):
    assert main(["campaign", "report", str(csv_campaign), "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    results_csv = (csv_campaign / "results.csv").read_text()
    assert "\"['CTS', 'ACK']\"" in results_csv
    assert stdout == results_csv


def test_campaign_report_missing_payload_exits_2(csv_campaign, capsys):
    from repro.campaign import Manifest, manifest_path

    log = manifest_path(csv_campaign)
    manifest = Manifest.load(log)
    victim = manifest.points[0]
    victim.result = None  # a done line that carries no result
    manifest.append_point(log, victim)
    assert main(["campaign", "report", str(csv_campaign)]) == 2
    line = _first_err_line(capsys)
    assert line.startswith(f"point {victim.id} of {csv_campaign} is done but")
