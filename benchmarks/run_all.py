"""Regenerate every paper table/figure at full scale.

Runs each experiment in :data:`repro.experiments.ALL_EXPERIMENTS` (full mode:
5-second simulations, 5 seeds, full sweeps) and writes one text file per
experiment under ``results/`` plus a combined ``results/ALL.txt``.  Use
``--quick`` for the reduced benchmark-mode sweeps, ``--jobs N`` to fan whole
experiments out over N worker processes, or pass experiment ids to run a
subset:

    python benchmarks/run_all.py                    # everything, full scale
    python benchmarks/run_all.py --quick fig4       # one experiment, quick
    python benchmarks/run_all.py --quick --jobs 4   # 4 experiments at a time

Parallel runs are bit-identical to serial runs (every seed's simulation owns
its RNG; results are keyed by experiment id and seed, never by completion
order) — tests/test_parallel_engine.py and tests/test_harness_scripts.py
enforce this.  Per-seed results are cached under ``<results-dir>/.cache/``
keyed by (runner, kwargs, seed, code-version), so a repeated invocation only
recomputes what changed; ``--no-cache`` disables that.  Each run also writes
a machine-readable timing summary to ``<results-dir>/BENCH_parallel.json``:
a per-invocation output (gitignored under the default ``results/``), not a
committed record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS, EXTENSIONS, get
from repro.experiments.common import RunSettings
from repro.runtime import DEFAULT_CACHE_DIRNAME, ResultCache, execution

#: Cheap experiments first so partial runs still cover most artifacts.
ORDER = [
    "table1", "table3", "fig21", "fig22",
    "fig1", "fig2", "fig3",
    "table4", "table5", "fig18", "fig19",
    "table6", "table7", "table8", "table9",
    "fig11", "fig12", "fig13", "fig17", "fig24",
    "fig7", "fig8", "fig6", "table2", "fig4", "fig5",
    "fig14", "fig23", "fig9", "fig10", "fig15", "fig16",
    "ext_autorate", "ext_sender_baseline",
    "ext_bursty_nav", "ext_jammer_crash", "ext_rts_roc",
    "ext_hidden_node",
]


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file + rename so readers never see a truncated file."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def run_one(experiment_id: str, quick: bool, cache_dir: str | None) -> dict:
    """Run one experiment (module-level so worker processes can import it)."""
    cache = ResultCache(cache_dir) if cache_dir else None
    wall_start = time.time()
    cpu_start = time.process_time()
    with execution(jobs=1, cache=cache):
        result = get(experiment_id)(RunSettings.for_mode(quick))
    return {
        "id": experiment_id,
        "text": result.to_text(),
        "wall_s": time.time() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
        "cache": cache.stats() if cache else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="subset of experiment ids")
    parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run up to N experiments concurrently in worker processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every seeded point instead of reusing <results-dir>/.cache",
    )
    parser.add_argument(
        "--results-dir",
        default=str(Path(__file__).resolve().parent.parent / "results"),
    )
    args = parser.parse_args(argv)

    known = set(ALL_EXPERIMENTS) | set(EXTENSIONS)
    ids = args.experiments or [e for e in ORDER if e in known]
    unknown = [e for e in ids if e not in known]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    jobs = max(1, args.jobs)

    results_dir = Path(args.results_dir)
    results_dir.mkdir(exist_ok=True)
    cache_dir = None if args.no_cache else str(results_dir / DEFAULT_CACHE_DIRNAME)

    run_started = time.time()
    reports: dict[str, dict] = {}
    if jobs > 1 and len(ids) > 1:
        started = finished = 0
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = {}
            for experiment_id in ids:
                futures[pool.submit(run_one, experiment_id, args.quick, cache_dir)] = (
                    experiment_id
                )
                started += 1
                print(f"[{experiment_id}] started ({started}/{len(ids)})", flush=True)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    report = future.result()
                    reports[report["id"]] = report
                    finished += 1
                    print(
                        f"[{report['id']}] done in {report['wall_s']:.1f}s "
                        f"({finished}/{len(ids)} finished)",
                        flush=True,
                    )
    else:
        for experiment_id in ids:
            print(f"[{experiment_id}] running...", flush=True)
            report = run_one(experiment_id, args.quick, cache_dir)
            reports[experiment_id] = report
            print(f"[{experiment_id}] done in {report['wall_s']:.1f}s", flush=True)

    # Emit artifacts in the deterministic requested order, whatever the
    # completion order was, and atomically so interrupts never truncate.
    mode = "quick" if args.quick else "full"
    for experiment_id in ids:
        report = reports[experiment_id]
        footer = f"(generated in {report['wall_s']:.1f}s, {mode} mode)\n"
        write_atomic(results_dir / f"{experiment_id}.txt", report["text"] + footer)
    # ALL.txt covers every experiment with an on-disk table, not just this
    # invocation's subset, so partial reruns never gut the combined file.
    combined = [
        (results_dir / f"{experiment_id}.txt").read_text()
        for experiment_id in ORDER
        if experiment_id in known and (results_dir / f"{experiment_id}.txt").exists()
    ]
    write_atomic(results_dir / "ALL.txt", "\n".join(combined))

    total_wall = time.time() - run_started
    total_cpu = sum(r["cpu_s"] for r in reports.values())
    cache_totals = {"hits": 0, "misses": 0, "stores": 0, "errors": 0}
    for report in reports.values():
        if report["cache"]:
            for key in cache_totals:
                cache_totals[key] += report["cache"][key]
    summary = {
        "mode": mode,
        "jobs": jobs,
        "experiments_run": len(ids),
        "total_wall_s": round(total_wall, 3),
        "total_cpu_s": round(total_cpu, 3),
        "cache": cache_totals if cache_dir else None,
        "experiments": [
            {
                "id": experiment_id,
                "wall_s": round(reports[experiment_id]["wall_s"], 3),
                "cpu_s": round(reports[experiment_id]["cpu_s"], 3),
                "cache": reports[experiment_id]["cache"],
            }
            for experiment_id in ids
        ],
    }
    write_atomic(results_dir / "BENCH_parallel.json", json.dumps(summary, indent=2) + "\n")

    if cache_dir:
        print(
            f"cache: {cache_totals['hits']} hits, {cache_totals['misses']} misses, "
            f"{cache_totals['errors']} corrupt entries ignored",
            flush=True,
        )
    print(
        f"wrote {len(ids)} results to {results_dir} "
        f"({total_wall:.1f}s wall, {total_cpu:.1f}s worker CPU, jobs={jobs})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
