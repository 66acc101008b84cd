"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

Runs each workload twice at the same seed, each in a fresh process: once
untraced (end-to-end metrics) and once traced (per-layer metrics, tracing
overhead, residual).  Prints each metric with its unit, each per-layer
metric beside the end-to-end metric and workload it should move, the
failed-op counts and the ``outputs_digest`` of both runs.  Exits 1 if any op
failed or the two digests differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its detail file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = Path(".bench_out") / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(detail_path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)

    gated = {w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]}
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        plain, plain_detail = run(workload, args.seed, args.seconds, 0)
        traced, traced_detail = run(workload, args.seed, args.seconds, 1)
        same = plain_detail["outputs_digest"] == traced_detail["outputs_digest"]
        failed = plain["failed"] + traced["failed"]
        ok = ok and same and failed == 0
        note = "" if workload in gated else "  (not gated by BENCHMARK.json)"
        print(f"== {workload}  seed {args.seed}{note}")
        print(f"   failed ops {plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced")
        print(f"   outputs_digest {plain_detail['outputs_digest']} untraced, "
              f"{traced_detail['outputs_digest']} traced: "
              f"{'identical' if same else 'DIFFERENT'}")
        print(f"   bench.ref_ms {plain_detail['ref_ms']:.4f} (diagnostic); "
              f"op raw p50 {plain_detail['raw_op_p50_ms']:.3f} ms; "
              f"op_tail_rel is p{plain_detail['tail_pct']} of {plain_detail['ops']} ops")
        print(f"   tracing overhead {traced_detail['trace_overhead']:.2f}x on op_p50_rel; "
              f"other.self_share {traced_detail['per_layer']['other.self_share']:.3f}")
        print("   end-to-end:")
        for name, metric in plain["metrics"].items():
            print(f"     {name:18} {metric['value']:14.6g} {metric['unit']}")
        print("   per-layer:")
        for name, metric in traced["metrics"].items():
            _unit, moves, target = LAYER_METRICS[name]
            print(f"     {name:34} {metric['value']:14.6g} {metric['unit']:6} "
                  f"-> {moves} on {target}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
