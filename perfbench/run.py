"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload paper_hotspots --seed 1 --seconds 20 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything above it
is a human-readable report.  A detail file (digest, diagnostics, raw
times) goes to ``.bench_out/``; a traced run also writes its spans there.

Exit codes: 0 after a completed run (even with failed ops, which the JSON
reports), 2 on bad arguments or when ``repro`` cannot be imported.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before imports
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import measure  # noqa: E402

WORKLOAD_NAMES = ("paper_hotspots", "dense_grid", "sweep_service")
#: Set-up (input generation, service start, warm-up op) is repeated this many
#: times and its median reported, so one slow moment does not decide it.
SETUP_REPEATS = 5
#: Warm-up ops tried per set-up before the run gives up.
WARMUP_ATTEMPTS = 3
#: Share of a traced run spent on untraced ops, the tracing-overhead base.
UNTRACED_SHARE = 0.3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_repro() -> None:
    """Import the program from ``src/`` of the current directory."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    from perfbench import workloads  # noqa: F401  (imports repro's layers)


def set_up(name: str, seed: int, workdir: Path, outputs: Any) -> tuple[Any, float, int]:
    """Generate inputs, start services, run one untimed warm-up op.

    Returns the live workload, how long that took, and how many warm-up ops
    failed before one succeeded (each counts as a failed op of the run).
    The warm-up fills the airtime, FER and RSS memos so timed ops see
    steady state.
    """
    from perfbench.workloads import WORKLOADS, OpFailed

    start = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.start()
        for attempt in range(WARMUP_ATTEMPTS):
            try:
                outputs.add(workload.op(attempt).outputs)
                break
            except OpFailed:
                raise
            except Exception:  # noqa: BLE001 - counted; the next attempt decides
                if attempt == WARMUP_ATTEMPTS - 1:
                    raise
                traceback.print_exc(file=sys.stderr)
    except BaseException:
        workload.stop()
        raise
    return workload, time.perf_counter() - start, attempt


def run_ops(workload: Any, seconds: float, outputs: Any, first: int,
            tracer: Any = None) -> tuple[list[dict], int, int]:
    """Closed loop for ``seconds``, and for at least ``POOL_SIZE`` ops.

    The op count floor makes every pooled input run at least once (op ``i``
    takes the pool from offset ``i``), so ``outputs_digest`` does not depend
    on how fast the machine was, and leaves ten ops beyond the tail.
    Returns the records of the ops that succeeded, the number that failed,
    and how many of those failed because their outputs were wrong.  Each op
    is bracketed by reference-kernel checkpoints; the checkpoint after one
    op is the one before the next.
    """
    from perfbench.workloads import POOL_SIZE, OpFailed

    records: list[dict] = []
    failed = wrong = 0
    index = first
    deadline = time.perf_counter() + seconds
    ref_before = measure.reference_checkpoint()
    while time.perf_counter() < deadline or len(records) + failed < POOL_SIZE:
        span = None
        if tracer is not None:
            tracer.op = index
            span, token = tracer.enter("op")
            tracer.root = span
        try:
            result = workload.op(index)
            outputs.add(result.outputs)
        except Exception as exc:  # noqa: BLE001 - an op boundary: count and go on
            failed += 1
            wrong += isinstance(exc, OpFailed)
            traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            if span is not None:
                tracer.root = None
                tracer.exit(span, token, keep=True)
                tracer.op = None
        ref_after = measure.reference_checkpoint()
        if result is not None:
            record = {
                "op": index,
                "seconds": result.seconds,
                "ref_s": (ref_before + ref_after) / 2.0,
                "rel": measure.normalise(result.seconds, ref_before, ref_after),
                "counts": result.counts,
            }
            for part, part_s in result.parts.items():
                record[f"{part}_rel"] = measure.normalise(part_s, ref_before, ref_after)
            records.append(record)
        ref_before = ref_after
        index += 1
    return records, failed, wrong


def end_to_end(records: list[dict], parts: tuple[str, ...], setup_s: float) -> dict[str, float]:
    op = measure.summarise([r["rel"] for r in records])
    metrics = {
        "op_p50_rel": op["p50"],
        "op_tail_rel": op["tail"],
    }
    for part in parts:
        metrics[f"{part}_p50_rel"] = measure.nearest_rank([r[f"{part}_rel"] for r in records], 50)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    from perfbench import layers
    from perfbench.trace import Installer, Tracer
    from perfbench.workloads import POOL_SIZE, Outputs

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    outputs = Outputs()
    setups = []
    workload = None
    base: list[dict] = []
    failed = wrong = 0
    try:
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.stop()
            workload = None
            workload, seconds, warmup_failed = set_up(
                args.workload, args.seed, workdir / f"setup{repeat}", outputs)
            setups.append(seconds)
            failed += warmup_failed
        setup_s = import_s + median(setups)

        if args.trace:
            base, base_failed, wrong = run_ops(workload, args.seconds * UNTRACED_SHARE, outputs, 1)
            failed += base_failed
            tracer = Tracer()
            installer = Installer(tracer)
            layers.install(installer)
            workload.span = tracer.span
            try:
                records, more_failed, more_wrong = run_ops(
                    workload, args.seconds * (1 - UNTRACED_SHARE), outputs,
                    1 + len(base) + base_failed, tracer)
            finally:
                installer.restore()
            failed += more_failed
            wrong += more_wrong
        else:
            records, run_failed, wrong = run_ops(workload, args.seconds, outputs, 1)
            failed += run_failed
    finally:
        if workload is not None:
            workload.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if not records or (args.trace and not base):
        print("perfbench: no op succeeded; nothing to report", file=sys.stderr)
        return 1

    attempted = len(setups) + len(base) + len(records) + failed
    digest = outputs.digest()
    e2e = end_to_end(records, workload.parts, setup_s)
    ref_ms = median(r["ref_s"] for r in records) * 1e3
    raw_ms = median(r["seconds"] for r in records) * 1e3
    tail_pct = measure.tail_percentile(len(records))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"workload {args.workload}  seed {args.seed}  timed ops {len(records)}  "
          f"failed {failed}/{attempted} (wrong outputs: {wrong})")
    print(f"outputs_digest {digest} over {len(outputs.seen)} inputs "
          "(the model has no independent reference yet; no error figure is given)")
    print(f"diag bench.ref_ms {ref_ms:.4f}  op raw p50 {raw_ms:.3f} ms  "
          f"op_tail_rel is p{tail_pct}  setup runs {[round(s, 4) for s in setups]}  "
          f"import {import_s:.3f} s")
    detail: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(records), "failed": failed, "wrong": wrong, "attempted": attempted,
        "outputs_digest": digest, "inputs": len(outputs.seen),
        "ref_ms": ref_ms, "raw_op_p50_ms": raw_ms, "tail_pct": tail_pct,
        "setup_runs_s": setups, "import_s": import_s,
    }
    if args.trace:
        ops = [(r["op"], r["seconds"], r["counts"]) for r in records]
        metrics = layers.layer_metrics(tracer, ops, POOL_SIZE)
        untraced = measure.nearest_rank([r["rel"] for r in base], 50)
        overhead = e2e["op_p50_rel"] / untraced
        residual = layers.residual_self_time(tracer, [op for op, _s, _c in ops])
        wall = sum(s for _op, s, _c in ops)
        top = sorted(residual.items(), key=lambda kv: -kv[1])[:5]
        print(f"trace overhead: traced op_p50_rel {e2e['op_p50_rel']:.3f} vs untraced "
              f"{untraced:.3f} in this run = {overhead:.2f}x")
        print(f"other.self_share {metrics['other.self_share']:.4f}; by span: " + ", ".join(
            f"{name} {seconds / wall:.4f}" for name, seconds in top))
        metrics = {name: metrics[name] for name in layers.LAYER_METRICS
                   if workload.harness or not name.startswith(layers.HARNESS_PREFIXES)}
        print(f"{'per-layer metric':34} {'value':>14} {'unit':6} should move")
        for name, value in metrics.items():
            unit, moves, target = layers.LAYER_METRICS[name]
            print(f"{name:34} {value:14.6g} {unit:6} {moves} on {target}")
        tracer.write(out_dir / f"{stem}.spans.jsonl")
        detail.update(per_layer=metrics, trace_overhead=overhead,
                      residual={k: v / wall for k, v in residual.items()})
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    else:
        metrics = e2e
        units = {name: UNITS.get(name, "ref") for name in metrics}
        for name, value in metrics.items():
            print(f"{name:18} {value:14.6g} {units[name]}")
        detail.update(end_to_end=metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True))

    print(json.dumps({
        # Outputs were checked on every op that completed and none was wrong;
        # ops that raised (e.g. an HTTP error) are counted in "failed".
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
