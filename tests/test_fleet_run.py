"""Orchestrator + subprocess executor end to end: dispatch, kill, heal, merge.

The expensive cases (real OS worker processes) run on a deliberately tiny
grid.  The chaos case is the PR's core claim: SIGKILL one shard's worker
mid-run, let the orchestrator re-dispatch it, and require the healed merged
output to be byte-identical to an undisturbed single-host run.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")

from repro.campaign import manifest_path, metrics_fingerprint, run_campaign
from repro.campaign.spec import spec_from_dict
from repro.cli import main
from repro.fleet import (
    CHAOS_KILL_ENV,
    FleetError,
    FleetState,
    fleet_state_path,
    fleet_status_document,
    run_fleet,
    shard_dir,
)

SPEC_TOML = """\
[campaign]
name = "fleet_small"
builder = "nav_pairs"
seeds = [1, 2]
duration_s = 0.2

[params]
transport = "udp"

[sweep]
n_greedy = [0, 1]

[zip]
alpha = [0, 6]
nav_inflation_us = [0.0, 600.0]
"""

SPEC_DOC = {
    "campaign": {
        "name": "fleet_small",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.2,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
    "zip": {"alpha": [0, 6], "nav_inflation_us": [0.0, 600.0]},
}


@pytest.fixture()
def spec():
    return spec_from_dict(SPEC_DOC)


@pytest.fixture()
def spec_toml(tmp_path):
    path = tmp_path / "fleet_small.toml"
    path.write_text(SPEC_TOML)
    return path


def test_subprocess_executor_matches_single_host(tmp_path, spec):
    single = tmp_path / "single"
    run_campaign(spec, out_dir=single)

    fleet_out = tmp_path / "fleet"
    result = run_fleet(spec, fleet_out, n_shards=2, executor="subprocess")
    assert result.ok and result.merged
    assert result.manifest.complete
    # Independent OS processes actually ran: each shard kept a worker log.
    assert (shard_dir(fleet_out, 0) / "worker.log").exists()
    assert (shard_dir(fleet_out, 1) / "worker.log").exists()

    assert metrics_fingerprint(fleet_out) == metrics_fingerprint(single)
    assert (fleet_out / "results.csv").read_bytes() == (
        single / "results.csv"
    ).read_bytes()


def test_killed_shard_is_redispatched_and_merge_is_byte_identical(
    tmp_path, spec, monkeypatch
):
    """SIGKILL shard 0's worker after its first point; healing must restore
    the exact single-host bytes."""
    single = tmp_path / "single"
    run_campaign(spec, out_dir=single)

    monkeypatch.setenv(CHAOS_KILL_ENV, "0")
    fleet_out = tmp_path / "fleet"
    result = run_fleet(spec, fleet_out, n_shards=2, executor="subprocess")
    assert result.ok and result.merged

    state = result.state
    assert state.shards[0].attempts == 2  # killed once, healed on re-dispatch
    assert state.shards[1].attempts == 1
    assert (shard_dir(fleet_out, 0) / ".chaos-killed").exists()

    assert metrics_fingerprint(fleet_out) == metrics_fingerprint(single)
    assert (fleet_out / "results.csv").read_bytes() == (
        single / "results.csv"
    ).read_bytes()


def test_more_shards_than_points(tmp_path):
    spec = spec_from_dict(
        {
            "campaign": {
                "name": "tiny",
                "builder": "nav_pairs",
                "seeds": [1],
                "duration_s": 0.15,
            },
            "sweep": {"n_greedy": [0, 1]},
        }
    )
    result = run_fleet(spec, tmp_path / "fleet", n_shards=5, executor="local")
    assert result.ok
    assert result.manifest.complete
    empties = [entry for entry in result.state.shards if not entry.point_ids]
    assert len(empties) == 3
    assert all(entry.status == "done" for entry in result.state.shards)


def test_stale_out_dir_is_refused(tmp_path, spec):
    fleet_out = tmp_path / "fleet"
    result = run_fleet(spec, fleet_out, n_shards=2, executor="local")
    assert result.ok
    other = spec_from_dict(
        {**SPEC_DOC, "campaign": {**SPEC_DOC["campaign"], "seeds": [1, 2, 3]}}
    )
    with pytest.raises(FleetError, match="fresh --out"):
        run_fleet(other, fleet_out, n_shards=2, executor="local")


def test_fleet_state_round_trips(tmp_path, spec):
    fleet_out = tmp_path / "fleet"
    result = run_fleet(spec, fleet_out, n_shards=3, executor="local")
    assert result.ok
    state = FleetState.load(fleet_state_path(fleet_out))
    assert state.merged
    assert state.n_shards == 3
    assert [entry.shard for entry in state.shards] == [0, 1, 2]
    assert {pid for entry in state.shards for pid in entry.point_ids} == {
        point.id for point in result.manifest.points
    }


def test_fleet_status_document(tmp_path, spec):
    fleet_out = tmp_path / "fleet"
    run_fleet(spec, fleet_out, n_shards=2, executor="local")
    doc = fleet_status_document(fleet_out)
    assert doc["merged"] and doc["complete"]
    assert doc["done"] == doc["total"] == spec.n_points
    assert len(doc["shards"]) == 2
    assert all(shard["status"] == "done" for shard in doc["shards"])
    json.dumps(doc)  # the whole document is JSON-serializable


def test_fleet_status_reads_a_mid_append_shard_without_writing(tmp_path, spec):
    """A shard caught mid-append has a torn final line in its manifest log.
    A status read must report the valid prefix's counts and leave the shard
    directory as it found it: only the shard's owner may cut the tail."""
    fleet_out = tmp_path / "fleet"
    run_fleet(spec, fleet_out, n_shards=2, executor="local")
    log = manifest_path(shard_dir(fleet_out, 0))
    lines = log.read_bytes().splitlines(keepends=True)
    # SIGKILL mid-append of the last point's "done" line
    torn = b"".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2]
    log.write_bytes(torn)
    before = sorted(p.name for p in log.parent.iterdir())

    doc = fleet_status_document(fleet_out)

    shard = doc["shards"][0]
    assert shard["done"] == shard["points"] - 1 >= 1
    assert log.read_bytes() == torn
    assert sorted(p.name for p in log.parent.iterdir()) == before


# -------------------------------------------------------------------- CLI ---


def run_cli(*argv):
    return main([str(arg) for arg in argv])


def test_cli_fleet_run_and_status(tmp_path, spec_toml, capsys):
    single = tmp_path / "single"
    assert run_cli("campaign", "run", spec_toml, "--out", single) == 0
    capsys.readouterr()

    fleet_out = tmp_path / "fleet"
    code = run_cli(
        "fleet", "run", spec_toml, "--shards", 2, "--executor", "local",
        "--out", fleet_out, "-v",
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "merged: 4/4 points done" in text
    assert (fleet_out / "results.csv").read_bytes() == (
        single / "results.csv"
    ).read_bytes()

    assert run_cli("fleet", "status", fleet_out, "--expect-complete") == 0
    text = capsys.readouterr().out
    assert "4/4 points done" in text

    assert run_cli("fleet", "status", fleet_out, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    assert doc["n_shards"] == 2


def test_cli_fleet_status_on_missing_dir(tmp_path, capsys):
    assert run_cli("fleet", "status", tmp_path / "nope") == 2
    assert "no fleet state" in capsys.readouterr().err
