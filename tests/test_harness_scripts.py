"""Tests for the run_all / make_experiments_md / record_perfbench harness scripts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Register under its name so worker processes can unpickle references to
    # the script's module-level functions (e.g. run_all.run_one).
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_run_all_subset_quick(tmp_path, capsys):
    run_all = load_script("run_all")
    rc = run_all.main(["table3", "--quick", "--results-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table3.txt").exists()
    assert (tmp_path / "ALL.txt").exists()
    assert "Table III" in (tmp_path / "table3.txt").read_text()


def test_run_all_rejects_unknown(tmp_path):
    run_all = load_script("run_all")
    with pytest.raises(SystemExit):
        run_all.main(["fig99", "--results-dir", str(tmp_path)])


def strip_timing_footer(text):
    """Drop the '(generated in Xs, ... mode)' lines: the only varying part."""
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("(generated in ")
    )


def test_run_all_jobs_flag_matches_serial_run(tmp_path):
    run_all = load_script("run_all")
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    ids = ["table3", "table1"]
    argv = ids + ["--quick", "--no-cache"]
    assert run_all.main(argv + ["--results-dir", str(serial_dir)]) == 0
    assert run_all.main(argv + ["--jobs", "2", "--results-dir", str(parallel_dir)]) == 0
    for name in ("table3.txt", "table1.txt", "ALL.txt"):
        serial = strip_timing_footer((serial_dir / name).read_text())
        parallel = strip_timing_footer((parallel_dir / name).read_text())
        assert serial == parallel, f"{name} differs between serial and --jobs 2"


def test_run_all_writes_bench_summary_and_populates_cache(tmp_path):
    import json

    # table6 goes through median_over_seeds/JobSpec, so its per-seed points
    # land in the on-disk cache; a second invocation must recompute nothing.
    run_all = load_script("run_all")
    assert run_all.main(["table6", "--quick", "--results-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_parallel.json").read_text())
    assert summary["mode"] == "quick"
    assert summary["experiments"][0]["id"] == "table6"
    assert summary["experiments"][0]["wall_s"] >= 0
    assert summary["total_cpu_s"] >= 0
    first_stores = summary["cache"]["stores"]
    assert first_stores > 0
    assert list((tmp_path / ".cache").glob("*.json")), "cache dir not populated"
    # Second invocation reuses every seeded point.
    assert run_all.main(["table6", "--quick", "--results-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "BENCH_parallel.json").read_text())
    assert summary["cache"]["hits"] == first_stores
    assert summary["cache"]["stores"] == 0


def test_count_calls_totals_exact_counts():
    count_calls = load_script("count_calls")
    result = count_calls.count_calls(["fig1_nav_udp"], [1], 0.1)
    json.dumps(result)  # main() prints it as one JSON line
    assert {"transmits", "events", "python_calls_per_tx", "all_calls_per_tx"} <= set(result)
    assert result["events"] > 0 and result["transmits"] > 0
    assert 0 < result["python_calls_per_tx"] <= result["all_calls_per_tx"]


def test_count_calls_counts_heap_pushes_of_named_scenarios(capsys):
    """``heap_pushes_per_tx`` reads the profile's ``heappush`` calls, an
    exact count.  fig1's four stations sit at one spot, so each frame's
    three hearers are one group: one start and one end entry instead of
    three each, 4 pushes fewer than the per-hearer fan-out's 11.1."""
    count_calls = load_script("count_calls")
    assert count_calls.main(["fig1_nav_udp"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["topologies"] == ["fig1_nav_udp"]
    assert result["heap_pushes_per_tx"] == 7.1


def test_write_atomic_never_leaves_partial_files(tmp_path, monkeypatch):
    run_all = load_script("run_all")
    target = tmp_path / "out.txt"
    target.write_text("intact")

    class ExplodingHandle:
        def write(self, _text):
            raise RuntimeError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    import os

    def exploding_fdopen(fd, mode):
        os.close(fd)
        return ExplodingHandle()

    monkeypatch.setattr(run_all.os, "fdopen", exploding_fdopen)
    with pytest.raises(RuntimeError, match="disk full"):
        run_all.write_atomic(target, "replacement")
    assert target.read_text() == "intact"  # old content untouched
    assert list(tmp_path.iterdir()) == [target]  # no temp litter


def test_write_atomic_replaces_content(tmp_path):
    run_all = load_script("run_all")
    target = tmp_path / "out.txt"
    run_all.write_atomic(target, "first")
    run_all.write_atomic(target, "second")
    assert target.read_text() == "second"
    assert list(tmp_path.iterdir()) == [target]


def test_run_all_order_covers_every_artifact():
    run_all = load_script("run_all")
    from repro.experiments import ALL_EXPERIMENTS, EXTENSIONS

    assert set(run_all.ORDER) == set(ALL_EXPERIMENTS) | set(EXTENSIONS)


def test_commentary_covers_every_artifact():
    make_md = load_script("make_experiments_md")
    from repro.experiments import ALL_EXPERIMENTS, EXTENSIONS

    assert set(make_md.COMMENTARY) == set(ALL_EXPERIMENTS) | set(EXTENSIONS)
    assert set(make_md.ORDER) == set(make_md.COMMENTARY)
    for paper, verdict in make_md.COMMENTARY.values():
        assert paper.strip() and verdict.strip()


# --------------------------------------------------- perf trajectory ----


def test_committed_perf_trajectory_is_valid():
    record = load_script("record_perfbench")
    doc = json.loads(record.TRAJECTORY.read_text())
    assert record.validate(doc) == []
    entries = doc["entries"]
    backfilled = {e["label"].split()[1] for e in entries if e["backfilled"]}
    assert {"12", "13", "15", "16", "17"} <= backfilled
    assert any(not e["backfilled"] for e in entries)


def test_perf_trajectory_validation_rejects_bad_entries():
    record = load_script("record_perfbench")
    runs = [
        {
            "metrics": {
                m["name"]: {"value": float(v)} for m in record.benchmark()["end_to_end"]
            },
            "outputs_digest": f"d{v}",
            "failed": 0,
        }
        for v in (3, 1, 2)
    ]
    entry = record.make_entry(
        "abc1234", "f" * 40, "t", "dense_grid", [7, 8, 9], 40.0, runs, runs[::-1]
    )
    assert entry["metrics"]["op_p50_rel"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert entry["anchor"]["ratios"]["op_p50_rel"]["median"] == 1.0
    doc = {"schema": record.SCHEMA, "entries": [entry]}
    assert record.validate(doc) == []
    broken = json.loads(json.dumps(doc))
    del broken["entries"][0]["outputs_digest"]["9"]
    del broken["entries"][0]["metrics"]["setup_s"]
    broken["entries"][0]["workload"] = "nope"
    broken["entries"][0]["src_tree"] = None
    problems = record.validate(broken)
    assert len(problems) == 4, problems
    assert record.validate({"schema": "other", "entries": [entry]})


def test_record_perfbench_parses_seed_ranges():
    record = load_script("record_perfbench")
    assert record.parse_seeds("1-3,7") == [1, 2, 3, 7]


def fake_metrics(record, value):
    return {m["name"]: {"value": value} for m in record.benchmark()["end_to_end"]}


@pytest.fixture
def stubbed_recorder(tmp_path, monkeypatch):
    """record_perfbench with git and the benchmark run stubbed out: each
    exported tree runs at its own speed, the working tree at 1.0, and no
    lookup needs a git checkout."""
    record = load_script("record_perfbench")
    trajectory = tmp_path / "BENCH_perfbench.json"
    trajectory.write_text(record.TRAJECTORY.read_text())
    monkeypatch.setattr(record, "TRAJECTORY", trajectory)
    speed = {record.ANCHOR: 4.0, "HEAD": 2.0}
    exported, calls = {}, []

    def export(rev, into):
        exported[into] = rev

    def run_once(checkout, workload, seed, seconds):
        rev = exported.get(checkout, "working tree")
        calls.append((rev, seed))
        value = speed.get(rev, 1.0) * (1.0 + seed / 100.0)
        return {"metrics": fake_metrics(record, value), "failed": 0,
                "outputs_digest": f"digest-{seed}"}

    def identify(rev):
        return ("abc1234" if rev is None else rev), "f" * 40

    monkeypatch.setattr(record, "_identify", identify)
    monkeypatch.setattr(record, "_export", export)
    monkeypatch.setattr(record, "run_once", run_once)
    return record, trajectory, calls


def test_record_perfbench_runs_the_anchor_in_every_round(stubbed_recorder, capsys):
    record, trajectory, calls = stubbed_recorder
    before = len(json.loads(trajectory.read_text())["entries"])
    assert record.main(["--workload", "dense_grid", "--seeds", "1-3",
                        "--baseline", "HEAD", "--label", "stub"]) == 0
    round_ = [record.ANCHOR, "HEAD", "working tree"]
    assert calls == (
        [(rev, 1) for rev in round_] + [(rev, 2) for rev in round_[::-1]]
        + [(rev, 3) for rev in round_]
    )
    doc = json.loads(trajectory.read_text())
    assert doc["schema"] == "perfbench-trajectory/2" and record.validate(doc) == []
    base, change = doc["entries"][before:]
    assert base["label"] == "baseline for: stub" and change["label"] == "stub"
    for entry, ratio in ((base, 0.5), (change, 0.25)):
        assert entry["anchor"]["commit"] == record.ANCHOR
        for stats in entry["anchor"]["ratios"].values():
            assert stats == {"median": ratio, "q1": ratio, "q3": ratio}
    out = capsys.readouterr().out
    assert "working tree won 3/3" in out and "identical in every pair: True" in out


def test_record_perfbench_without_baseline_still_runs_the_anchor(stubbed_recorder):
    record, trajectory, calls = stubbed_recorder
    before = len(json.loads(trajectory.read_text())["entries"])
    assert record.main(["--workload", "paper_hotspots", "--seeds", "5,6"]) == 0
    assert calls == [(record.ANCHOR, 5), ("working tree", 5),
                     ("working tree", 6), (record.ANCHOR, 6)]
    doc = json.loads(trajectory.read_text())
    (entry,) = doc["entries"][before:]
    assert entry["anchor"]["ratios"]["setup_s"]["median"] == 0.25
    assert record.validate(doc) == []
    assert doc["about"] == record.ABOUT
    assert "'commit' names its parent" in doc["about"]


def test_perf_trajectory_validation_of_anchor_ratios():
    record = load_script("record_perfbench")
    runs = [{"metrics": fake_metrics(record, 2.0), "outputs_digest": "d", "failed": 0}]
    anchor = [{"metrics": fake_metrics(record, 4.0)}]
    entry = record.make_entry("abc1234", "f" * 40, "t", "dense_grid", [7], 40.0,
                              runs, anchor)
    legacy = {key: value for key, value in entry.items() if key != "anchor"}
    assert record.validate({"schema": record.SCHEMA, "entries": [legacy, entry]}) == []
    problems = record.validate({"schema": record.SCHEMA, "entries": [entry, legacy]})
    assert problems == ["entry 1: every entry after an anchored one has an 'anchor'"]
    partial = json.loads(json.dumps(entry))
    del partial["anchor"]["ratios"]["setup_s"]
    assert len(record.validate({"schema": record.SCHEMA, "entries": [partial]})) == 1
    assert record.validate({"schema": "perfbench-trajectory/1", "entries": [entry]})
