"""Append perfbench results to the committed perf trajectory.

    python3 benchmarks/record_perfbench.py --workload dense_grid --seeds 1-10 \
        [--baseline REV] [--label TEXT]

Runs ``perfbench/run.py`` for one workload once per seed, untraced, for
``BENCHMARK.json``'s ``run_seconds``, from the repository root, and appends
one entry to ``results/BENCH_perfbench.json``: the commit, the workload, the
seeds, the median and quartiles of every end-to-end metric ``BENCHMARK.json``
declares, the failed-op count and each seed's ``outputs_digest``.

Every seed also runs on a ``git archive`` copy of the fixed ``ANCHOR`` tree,
in the same round, and the entry stores each metric's per-seed ratio to the
anchor (median and quartiles).  Absolute numbers drift with the host from
one session to the next; the anchor runs beside the measured tree, so the
ratios compare across sessions.

``commit`` is ``HEAD``; ``src_tree`` is the git tree id of ``src/`` exactly as
it ran, uncommitted edits included.  A change measured before it is
committed is therefore identified by content: ``git rev-parse C:src`` equals
``src_tree`` for the commit ``C`` that holds the measured code.

With ``--baseline REV`` every seed also runs on a ``git archive`` copy of
REV, and the baseline's entry (with its own anchor ratios) is appended
first.  Each round runs anchor, baseline and working tree, and the order
flips from one seed to the next, so the baseline and the working tree
alternate which runs first.  The script then prints, per metric, how many
pairs the working tree won and whether the digests agreed.  The
benchmark's own files are never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "results" / "BENCH_perfbench.json"
SCHEMA = "perfbench-trajectory/2"

#: The tree every recording runs beside the measured one: the first tree with
#: one simulation path.  ``perfbench/`` has not changed since, so it runs the
#: same benchmark code.
ANCHOR = "c6ed72b"

#: The trajectory's ``about`` text, written with every append.
ABOUT = (
    "End-to-end perfbench results per commit, oldest first. Append with "
    "benchmarks/record_perfbench.py; metrics are medians and quartiles over the "
    "listed seeds, one untraced run of python3 perfbench/run.py per seed. Since "
    "schema 2 every entry also holds 'anchor': each metric's per-seed ratio to the "
    "anchor tree named there, run in the same rounds; compare entries from "
    "different sessions by these ratios, not by absolute values. A change entry's "
    "'commit' names its parent, since a change is measured before it is "
    "committed; its 'src_tree' identifies the measured change: git rev-parse "
    "C:src equals it for the commit C that holds the code."
)

ENTRY_KEYS = {"commit", "src_tree", "label", "workload", "seeds", "seconds",
              "host", "backfilled", "metrics", "outputs_digest", "failed"}
#: ``source`` names a backfilled entry's origin; ``anchor`` holds the ratios
#: to ``ANCHOR`` that every entry since schema 2 carries.
OPTIONAL_KEYS = {"source", "anchor"}


def benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced benchmark run: its result line plus its digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    result["outputs_digest"] = json.loads(detail.read_text())["outputs_digest"]
    return result


def summarize(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method) of one metric's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def make_entry(commit: str, src_tree: str, label: str, workload: str,
               seeds: list[int], seconds: float, runs: list[dict[str, Any]],
               anchor_runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One trajectory entry; ``anchor_runs[i]`` ran beside ``runs[i]``."""
    names = [metric["name"] for metric in benchmark()["end_to_end"]]
    return {
        "commit": commit,
        "src_tree": src_tree,
        "label": label,
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                f"CPython {platform.python_version()}",
        "backfilled": False,
        "metrics": {
            name: summarize([run["metrics"][name]["value"] for run in runs])
            for name in names
        },
        "outputs_digest": {
            str(seed): run["outputs_digest"] for seed, run in zip(seeds, runs)
        },
        "failed": sum(run["failed"] for run in runs),
        "anchor": {
            "commit": ANCHOR,
            "ratios": {
                name: summarize([
                    run["metrics"][name]["value"] / anchor["metrics"][name]["value"]
                    for run, anchor in zip(runs, anchor_runs)
                ])
                for name in names
            },
        },
    }


def validate(doc: Any) -> list[str]:
    """Schema problems in a trajectory document (empty when it is valid)."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return [f"schema tag is not {SCHEMA!r}"]
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["'entries' must be a non-empty list"]
    workloads = {w["name"] for w in benchmark()["workloads"]}
    metric_names = {m["name"] for m in benchmark()["end_to_end"]}
    problems = []
    anchored = False
    for i, entry in enumerate(entries):
        where = f"entry {i}"
        if not isinstance(entry, dict) or set(entry) - OPTIONAL_KEYS != ENTRY_KEYS:
            problems.append(f"{where}: keys must be {sorted(ENTRY_KEYS)}"
                            f" (+ {sorted(OPTIONAL_KEYS)})")
            continue
        if "anchor" in entry:
            anchored = True
            problems.extend(_anchor_problems(where, entry, metric_names))
        elif anchored:
            problems.append(f"{where}: every entry after an anchored one has an 'anchor'")
        backfilled = entry["backfilled"]
        if not isinstance(backfilled, bool):
            problems.append(f"{where}: 'backfilled' must be a bool")
            continue
        if backfilled != ("source" in entry):
            problems.append(f"{where}: exactly the backfilled entries name a 'source'")
        src_tree = entry["src_tree"]
        if not (isinstance(src_tree, str) or (backfilled and src_tree is None)):
            problems.append(f"{where}: 'src_tree' must be a tree id (null if backfilled)")
        if entry["workload"] not in workloads:
            problems.append(f"{where}: unknown workload {entry['workload']!r}")
        seeds = entry["seeds"]
        if not (isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds)):
            problems.append(f"{where}: 'seeds' must be a non-empty list of ints")
        metrics = entry["metrics"]
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}: 'metrics' must be a non-empty object")
            continue
        if not backfilled and set(metrics) != metric_names:
            problems.append(f"{where}: a measured entry has every end-to-end metric")
        for name, stats in metrics.items():
            if name not in metric_names:
                problems.append(f"{where}: unknown metric {name!r}")
            elif not _valid_stats(stats, backfilled):
                problems.append(f"{where}: {name} needs numeric median/q1/q3"
                                " (a backfilled one: median and/or spread)")
        digests = entry["outputs_digest"]
        if not backfilled and not (
            isinstance(digests, dict) and set(digests) == {str(s) for s in seeds}
        ):
            problems.append(f"{where}: a measured entry has one digest per seed")
        failed = entry["failed"]
        if not (type(failed) is int or (backfilled and failed is None)):
            problems.append(f"{where}: 'failed' must be an int (null if not recorded)")
    return problems


def _anchor_problems(where: str, entry: dict[str, Any],
                     metric_names: set[str]) -> list[str]:
    anchor = entry["anchor"]
    if entry["backfilled"] is not False:
        return [f"{where}: only a measured entry has an 'anchor'"]
    if not (isinstance(anchor, dict) and set(anchor) == {"commit", "ratios"}
            and isinstance(anchor["commit"], str)):
        return [f"{where}: 'anchor' must hold a 'commit' and its 'ratios'"]
    ratios = anchor["ratios"]
    if not (isinstance(ratios, dict) and set(ratios) == metric_names and all(
        _valid_stats(stats, False) for stats in ratios.values()
    )):
        return [f"{where}: anchor ratios need median/q1/q3 for every end-to-end metric"]
    return []


def _valid_stats(stats: Any, backfilled: bool) -> bool:
    if not isinstance(stats, dict) or not stats:
        return False
    allowed = {"median", "q1", "q3", "spread"} if backfilled else {"median", "q1", "q3"}
    if not set(stats) <= allowed or not all(
        isinstance(v, (int, float)) for v in stats.values()
    ):
        return False
    return backfilled or set(stats) == allowed


def append(entries: list[dict[str, Any]]) -> None:
    doc = json.loads(TRAJECTORY.read_text())
    doc["about"] = ABOUT
    doc["entries"].extend(entries)
    problems = validate(doc)
    if problems:
        raise SystemExit("refusing to write an invalid trajectory:\n" + "\n".join(problems))
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")


def _git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def _working_src_tree() -> str:
    """Tree id of ``src/`` in the working tree, via a scratch index."""
    with tempfile.TemporaryDirectory(prefix="perfbench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "--all", "--", "src", env=env)
        return _git("write-tree", "--prefix=src/", env=env)


def _identify(rev: str | None) -> tuple[str, str]:
    """``(short commit, tree id of src/)`` of ``rev``.

    ``None`` is the tree being measured: ``HEAD`` and ``src/`` as it is in
    the working tree.
    """
    if rev is None:
        return _git("rev-parse", "--short=7", "HEAD"), _working_src_tree()
    return _git("rev-parse", "--short=7", rev), _git("rev-parse", f"{rev}:src")


def _export(rev: str, into: Path) -> None:
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_rounds(checkouts: list[Path], workload: str, seeds: list[int],
               seconds: float) -> list[list[dict[str, Any]]]:
    """One run per checkout per seed; the order flips from seed to seed."""
    runs: list[list[dict[str, Any]]] = [[] for _ in checkouts]
    for i, seed in enumerate(seeds):
        order = list(range(len(checkouts)))
        for k in order if i % 2 == 0 else order[::-1]:
            runs[k].append(run_once(checkouts[k], workload, seed, seconds))
    return runs


def print_summary(workload: str, runs: list[list[dict]],
                  entries: list[dict[str, Any]]) -> None:
    """Medians with their anchor ratios; with a baseline, the pairs it won."""
    better = {m["name"]: m["better"] for m in benchmark()["end_to_end"]}
    sides = "baseline -> working tree" if len(runs) == 2 else "working tree"
    print(f"== {workload}: {len(runs[-1])} rounds, {sides}"
          f" (median ratio to {ANCHOR} in brackets)")
    for name, direction in better.items():
        columns = []
        for side, entry in zip(runs, entries):
            median = statistics.median(run["metrics"][name]["value"] for run in side)
            columns.append(f"{median:10.4g} [{entry['anchor']['ratios'][name]['median']:.3f}]")
        line = f"   {name:18s} " + " -> ".join(columns)
        if len(runs) == 2:
            a, b = ([run["metrics"][name]["value"] for run in side] for side in runs)
            wins = sum((y < x) if direction == "lower" else (y > x)
                       for x, y in zip(a, b))
            line += f"   working tree won {wins}/{len(b)}"
        print(line)
    if len(runs) == 2:
        same = all(x["outputs_digest"] == y["outputs_digest"] for x, y in zip(*runs))
        print(f"   outputs_digest identical in every pair: {same}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark()["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--baseline", metavar="REV",
                        help="also run a git archive of REV, alternating pairs")
    parser.add_argument("--label", default="", help="free text stored with the entry")
    args = parser.parse_args(argv)

    seconds = benchmark()["run_seconds"]
    commit, src_tree = _identify(None)
    revs = [ANCHOR] if args.baseline is None else [ANCHOR, args.baseline]
    with tempfile.TemporaryDirectory(prefix="perfbench-trees-") as tmp:
        checkouts = [Path(tmp) / str(i) for i in range(len(revs))]
        for rev, checkout in zip(revs, checkouts):
            checkout.mkdir()
            _export(rev, checkout)
        anchor, *runs = run_rounds(checkouts + [ROOT], args.workload, args.seeds,
                                   seconds)
    entries = [make_entry(commit, src_tree, args.label, args.workload, args.seeds,
                          seconds, runs[-1], anchor)]
    if args.baseline is not None:
        entries.insert(0, make_entry(
            *_identify(args.baseline), f"baseline for: {args.label}",
            args.workload, args.seeds, seconds, runs[0], anchor))
    append(entries)
    print_summary(args.workload, runs, entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
