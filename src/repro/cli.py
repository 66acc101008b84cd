"""Command-line interface.

::

    python -m repro list                      # every reproducible artifact
    python -m repro run fig1 --quick          # regenerate one table/figure
    python -m repro run fig1 --jobs 4         # seeded repetitions in parallel
    python -m repro demo nav --grc            # misbehavior demo + sparkline
    python -m repro campaign run examples/campaigns/fig1_nav_udp.toml --jobs 4
    python -m repro campaign status results/campaigns/fig1_nav_udp
    python -m repro campaign report results/campaigns/fig1_nav_udp
    python -m repro fleet run examples/campaigns/fig1_nav_udp.toml --shards 4
    python -m repro fleet serve --root results/fleet
    python -m repro chaos --profile quick     # fault-injection self-test

The demos build a small hotspot, run the chosen misbehavior, and print
per-flow goodput plus a goodput-over-time sparkline so the takeover (and the
GRC recovery) is visible at a glance.  Campaigns run declarative TOML sweep
specs (see examples/campaigns/) with a resumable manifest.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments import entries, get_entry

US = 1_000_000.0


def _emit(document: str, output: str | None, end: str = "") -> None:
    """Write ``document`` to the ``-o`` file, or print it (plus ``end``)."""
    if output:
        with open(output, "w") as handle:
            handle.write(document)
        print(f"wrote {output}")
    else:
        print(document, end=end)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.stats.summary import format_table

    selected = entries(tag=args.tag or None)
    rows = [
        [
            e.id,
            e.artifact,
            e.title,
            ",".join(e.tags),
            e.builder or "-",
        ]
        for e in selected
    ]
    print(format_table(["id", "artifact", "title", "tags", "builder"], rows), end="")
    if not selected:
        print(f"no experiments tagged {args.tag!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import RunSettings
    from repro.runtime import ResultCache, execution

    entry = get_entry(args.experiment)
    settings = RunSettings.for_mode(args.quick).replace(
        telemetry=args.telemetry, channel=args.channel
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    with execution(jobs=args.jobs, cache=cache):
        result = entry.runner(settings)
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache: {stats['hits']} hits, {stats['misses']} misses",
            file=sys.stderr,
        )
    text = result.to_json(indent=2) if args.format == "json" else result.to_text()
    _emit(text, args.output, end="\n")
    if args.telemetry and args.format != "json" and result.telemetry is not None:
        snap = result.telemetry
        print(
            f"telemetry: {len(snap.counters)} counters, {len(snap.gauges)} gauges, "
            f"{len(snap.histograms)} histograms over stations "
            f"{','.join(snap.stations())} (schema v{snap.schema_version})"
        )
    return 0


def _build_demo(kind: str, grc: bool, seed: int):
    from repro.core.greedy import GreedyConfig
    from repro.mac.frames import FrameKind
    from repro.net.scenario import Scenario
    from repro.phy.error import set_ber_all_pairs

    if kind == "nav":
        s = Scenario(seed=seed)
        s.add_wireless_node("NS")
        s.add_wireless_node("GS")
        s.add_wireless_node("NR")
        s.add_wireless_node(
            "GR", greedy=GreedyConfig.nav_inflator(10_000.0, {FrameKind.CTS})
        )
        if grc:
            s.enable_nav_validation()
        f1, victim = s.udp_flow("NS", "NR")
        f2, attacker = s.udp_flow("GS", "GR")
        f1.start()
        f2.start()
        return s, victim, attacker
    if kind == "spoof":
        s = Scenario(seed=seed)
        s.add_wireless_node("NS", position=(0, 0))
        s.add_wireless_node("GS", position=(60, 60))
        s.add_wireless_node("NR", position=(10, 0))
        s.add_wireless_node(
            "GR", position=(48, 20), greedy=GreedyConfig.ack_spoofer(victims={"NR"})
        )
        set_ber_all_pairs(s.error_model, ["NS", "GS", "NR", "GR"], 2e-4)
        if grc:
            s.enable_spoof_detection(["NS"])
        snd1, victim = s.tcp_flow("NS", "NR")
        snd2, attacker = s.tcp_flow("GS", "GR")
        snd1.start()
        snd2.start()
        return s, victim, attacker
    # kind == "fake" (argparse choices rule out anything else)
    s = Scenario(seed=seed, rts_enabled=False)
    s.add_wireless_node("S1")
    s.add_wireless_node("S2")
    s.add_wireless_node("R1")
    s.add_wireless_node("R2", greedy=GreedyConfig.ack_faker())
    s.error_model.set_data_fer("S1", "R1", 0.5)
    s.error_model.set_data_fer("S2", "R2", 0.5)
    f1, victim = s.udp_flow("S1", "R1")
    f2, attacker = s.udp_flow("S2", "R2")
    f1.start()
    f2.start()
    return s, victim, attacker


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.stats.trace import attach_goodput_series, sparkline

    s, victim, attacker = _build_demo(args.kind, args.grc, args.seed)
    victim_series = attach_goodput_series(s.sim, victim)
    attacker_series = attach_goodput_series(s.sim, attacker)
    duration = args.duration
    s.run(duration)
    v = victim.goodput_mbps(duration * US)
    a = attacker.goodput_mbps(duration * US)
    grc_note = " (GRC on)" if args.grc else ""
    print(f"demo={args.kind}{grc_note}  seed={args.seed}  {duration:.0f}s simulated")
    print(f"  victim   {v:5.2f} Mbps |{sparkline([m for _t, m in victim_series.series()])}|")
    print(f"  attacker {a:5.2f} Mbps |{sparkline([m for _t, m in attacker_series.series()])}|")
    if s.report:
        offenders = dict(s.report.offenders())
        print(f"  detections: {offenders}")
    return 0


# -------------------------------------------------------------- metrics -----


def _capture_target(args: argparse.Namespace):
    """Run ``args.target`` (perf scenario or experiment id) with telemetry on.

    Perf scenario names (``repro perf --list``) run one seeded simulation;
    experiment ids run the whole artifact under an ambient capture, exactly
    like ``repro run <id> --telemetry``.
    """
    from repro.obs import MetricsRegistry, capture
    from repro.perf.scenarios import SCENARIOS, get_scenario

    if args.target in SCENARIOS:
        spec = get_scenario(args.target)
        duration = args.duration if args.duration is not None else spec.duration_s
        registry = MetricsRegistry()
        with capture(registry):
            built = spec.build(args.seed)
            built.scenario.run(duration)
        return registry.snapshot(
            scenario=args.target, seed=args.seed, duration_s=duration
        )
    from repro.experiments.common import RunSettings

    try:
        entry = get_entry(args.target)
    except KeyError as exc:
        raise KeyError(
            f"{exc.args[0]}\ntarget must be a perf scenario (repro perf --list) "
            "or an experiment id (repro list)"
        ) from None
    settings = RunSettings.for_mode(args.quick).replace(telemetry=True)
    return entry.runner(settings).telemetry


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import validate_snapshot
    from repro.stats.summary import format_table

    snapshot = _capture_target(args)
    problems = validate_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"invalid snapshot: {problem}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = snapshot.to_json(indent=2) + "\n"
    else:
        header = (
            f"== telemetry {args.target} ==\n"
            f"schema v{snapshot.schema_version}; layers "
            f"{','.join(snapshot.layers())}; stations {','.join(snapshot.stations())}\n"
        )
        text = header + format_table(
            ["layer", "station", "metric", "kind", "value"],
            [list(row) for row in snapshot.rows()],
        )
    _emit(text, args.output)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.perf.scenarios import get_scenario
    from repro.stats.trace import FrameTracer

    spec = get_scenario(args.target)
    built = spec.build(args.seed)
    tracer = FrameTracer(built.scenario.medium)
    duration = args.duration if args.duration is not None else spec.duration_s
    built.scenario.run(duration)
    if args.output:
        written = tracer.to_jsonl(args.output, limit=args.limit)
        suffix = f" (dropped {tracer.dropped})" if tracer.dropped else ""
        print(f"wrote {written} records to {args.output}{suffix}")
    else:
        print(tracer.to_text(limit=args.limit))
    return 0


# ----------------------------------------------------------------- perf -----


def _cmd_perf(args: argparse.Namespace) -> int:
    import contextlib
    import json as _json

    from repro.phy.channel import use_channel
    from repro.perf import (
        REGRESSION_FACTOR,
        check_regression,
        load_bench,
        run_benchmark,
        scenario_names,
        validate_bench,
        write_bench,
    )

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    baseline = None
    if args.check_regression:
        try:
            baseline = load_bench(args.check_regression)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load baseline: {exc}") from None
    channel_ctx = (
        use_channel(args.channel) if args.channel else contextlib.nullcontext()
    )
    with channel_ctx:
        bench = run_benchmark(
            names=args.scenarios or None,
            seed=args.seed,
            repeats=args.repeats,
            duration_s=args.duration,
            progress=lambda message: print(message, file=sys.stderr),
            telemetry=args.telemetry,
        )
    problems = validate_bench(bench)
    if problems:
        for problem in problems:
            print(f"invalid benchmark: {problem}", file=sys.stderr)
        return 2
    if args.output:
        write_bench(args.output, bench)
        print(f"wrote {args.output}")
    else:
        print(_json.dumps(bench, indent=2, sort_keys=True))
    if args.check_regression:
        factor = args.factor if args.factor is not None else REGRESSION_FACTOR
        failures = check_regression(bench, baseline, factor=factor)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check_regression}", file=sys.stderr)
    return 0


# --------------------------------------------------------------- detect -----


def _cmd_detect_diff(args: argparse.Namespace) -> int:
    from repro.detect.diff import QUICK_FUZZ_CASES, diff_detection

    fuzz_cases = (
        tuple(range(args.fuzz_cases))
        if args.fuzz_cases is not None
        else QUICK_FUZZ_CASES
    )
    reports = diff_detection(
        targets=args.targets or None,
        golden_dir=args.golden_dir,
        fuzz_cases=fuzz_cases,
        fuzz_duration_s=args.fuzz_duration,
        progress=lambda message: print(message, file=sys.stderr),
    )
    failures = [report for report in reports if not report.ok]
    for report in failures:
        print(f"DIVERGED {report.summary_line()}")
        for problem in report.problems:
            print(f"  {problem}")
    if failures:
        return 1
    print(f"{len(reports)} target(s): streaming detection matches offline")
    return 0


# ----------------------------------------------------------- campaigns -----


def _campaign_out_dir(target: str, quick: bool):
    """Resolve a run/status/report target: a spec .toml or an output dir."""
    from pathlib import Path

    from repro.campaign import default_out_dir, load_spec

    path = Path(target)
    if path.is_dir():
        return path
    return default_out_dir(load_spec(path, quick=quick))


def _retry_policy(args: argparse.Namespace):
    """RetryPolicy from the --retries/--job-timeout/--backoff flags, if any."""
    if args.retries is None and args.job_timeout is None and args.backoff is None:
        return None
    from repro.runtime import RetryPolicy

    kwargs = {}
    if args.retries is not None:
        kwargs["max_attempts"] = max(1, args.retries)
    if args.job_timeout is not None:
        kwargs["timeout_s"] = args.job_timeout
    if args.backoff is not None:
        kwargs["backoff_base_s"] = args.backoff
    return RetryPolicy(**kwargs)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import FAILED, load_spec, manifest_path, run_campaign

    spec = load_spec(args.spec, quick=args.quick)
    summary = run_campaign(
        spec,
        out_dir=args.out,
        jobs=args.jobs,
        resume=args.resume,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=print if args.verbose else None,
        telemetry=args.telemetry,
        retry=_retry_policy(args),
    )
    manifest = summary.manifest
    mode = " (quick)" if args.quick else ""
    print(
        f"campaign {spec.name}{mode}: {manifest.total} points x "
        f"{len(spec.seeds)} seeds, builder {spec.builder}"
    )
    print(
        f"  executed {summary.executed}, skipped {summary.skipped}, "
        f"failed {summary.failed}"
    )
    if summary.cache_stats is not None:
        stats = summary.cache_stats
        print(f"  cache: {stats['hits']} hits, {stats['misses']} misses")
    retries = sum(point.retries for point in manifest.points)
    faults = manifest.faults or {}
    if retries or any(faults.values()):
        print(
            f"  fault tolerance: {retries} job retries, "
            f"{faults.get('pool_rebuilds', 0)} pool rebuilds, "
            f"{faults.get('worker_kills', 0)} watchdog kills"
            + (" (degraded to serial)" if faults.get("degraded_to_serial") else "")
        )
    files = f"{manifest_path(summary.out_dir).name}, results.csv, results.json"
    print(f"  out: {summary.out_dir} ({files})")
    # Nonzero whenever any point *ends* failed — also on --resume runs that
    # executed nothing but inherit failed points from the manifest.
    return 1 if manifest.count(FAILED) else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign import DONE, Manifest, manifest_path
    from repro.stats.summary import format_table

    manifest = Manifest.load(manifest_path(_campaign_out_dir(args.target, args.quick)))
    if args.json:
        print(_json.dumps(manifest.status_document(), indent=2, sort_keys=True))
    else:
        print(
            f"campaign {manifest.name}: {manifest.count(DONE)}/{manifest.total} "
            f"points done, {manifest.count('failed')} failed, "
            f"{manifest.count('pending')} pending (spec {manifest.spec_hash})"
        )
        rows = [
            [
                str(point.index),
                point.id,
                point.status,
                f"{len(point.seeds_done)}/{len(manifest.seeds)}",
                str(point.retries),
                point.last_failure or point.error or "",
            ]
            for point in manifest.points
        ]
        headers = ["index", "point", "status", "seeds", "retries", "last failure"]
        print(format_table(headers, rows), end="")
        faults = manifest.faults or {}
        if any(faults.values()):
            print(
                f"pool incidents: {faults.get('pool_rebuilds', 0)} rebuilds, "
                f"{faults.get('worker_kills', 0)} watchdog kills"
                + (" (degraded to serial)" if faults.get("degraded_to_serial") else "")
            )
    if args.expect_complete and not manifest.complete:
        print("campaign is not complete", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign import Manifest, aggregate, load_point_results, manifest_path
    from repro.campaign.runner import results_csv
    from repro.stats.summary import format_table

    out = _campaign_out_dir(args.target, args.quick)
    manifest = Manifest.load(manifest_path(out))
    columns, rows = aggregate(manifest, load_point_results(out, manifest))
    if args.format == "json":
        document = {"name": manifest.name, "columns": columns, "rows": rows}
        text = _json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = results_csv(columns, rows)
    else:
        header = (
            f"== campaign {manifest.name} ==\n"
            f"{len(rows)}/{manifest.total} points done; metric medians over "
            f"seeds {manifest.seeds}\n"
        )
        cells = [[_fmt_cell(row.get(c, "")) for c in columns] for row in rows]
        text = header + format_table(columns, cells)
    _emit(text, args.output)
    return 0


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# -------------------------------------------------------------------- fleet --


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.campaign import default_out_dir, load_spec, manifest_path
    from repro.fleet import run_fleet

    spec = load_spec(args.spec, quick=args.quick)
    run = run_fleet(
        spec,
        args.out if args.out else default_out_dir(spec),
        n_shards=args.shards,
        executor=args.executor,
        jobs=args.jobs,
        max_shard_attempts=args.max_shard_attempts,
        max_parallel=args.max_parallel_shards,
        progress=print if args.verbose else None,
    )
    mode = " (quick)" if args.quick else ""
    state = run.state
    healed = sum(max(0, entry.attempts - 1) for entry in state.shards)
    print(
        f"fleet {spec.name}{mode}: {args.shards} shards via {state.executor}, "
        f"{sum(len(entry.point_ids) for entry in state.shards)} points"
    )
    if healed:
        print(f"  healing: {healed} shard re-dispatch(es)")
    if not run.ok:
        print(f"  FAILED: {run.error}", file=sys.stderr)
        return 1
    manifest = run.manifest
    print(
        f"  merged: {manifest.count('done')}/{manifest.total} points done"
        + ("" if manifest.complete else " (INCOMPLETE)")
    )
    files = f"{manifest_path(run.out_dir).name}, results.csv, results.json"
    print(f"  out: {run.out_dir} ({files})")
    return 0 if manifest.complete else 1


def _cmd_fleet_worker(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fleet import ShardTask, run_shard_inprocess
    from repro.fleet.executor import chaos_kill_hook

    task = ShardTask(
        spec_path=Path(args.spec),
        out_dir=Path(args.out),
        shard=args.shard,
        n_shards=args.n_shards,
        jobs=args.jobs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )
    return run_shard_inprocess(task, progress=chaos_kill_hook(task))


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fleet import fleet_status_document, get_json

    if not args.url and not args.target:
        raise ValueError("fleet status needs an output directory or --url")
    if args.url:
        # Service-level status: queue depth, job-state counts, journal lag.
        doc = get_json(args.url, "/status")
        if args.json:
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            jobs = doc["jobs"]
            states = ", ".join(
                f"{key} {value}" for key, value in sorted(jobs.items()) if key != "total"
            )
            print(
                f"fleet service at {args.url}: {jobs['total']} job(s)"
                + (f" ({states})" if states else "")
            )
            print(
                f"  queue: {doc['queue_depth']}/{doc['max_queue']} waiting, "
                f"{doc['running']}/{doc['max_running']} running"
                + ("  [draining]" if doc["draining"] else "")
            )
            print(
                f"  journal: seq {doc['journal']['seq']}, "
                f"lag {doc['journal']['lag']} line(s) since last snapshot"
            )
        return 0

    doc = fleet_status_document(args.target)
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"fleet {doc['name']}: {doc['done']}/{doc['total']} points done over "
            f"{doc['n_shards']} shards via {doc['executor']}"
            f" (spec {doc['spec_hash']})"
        )
        for shard in doc["shards"]:
            error = f"  [{shard['error']}]" if shard["error"] else ""
            print(
                f"  shard {shard['shard']:2d}: {shard['status']:8s} "
                f"{shard['done']}/{shard['points']} points, "
                f"attempts {shard['attempts']}, retries {shard['retries']}{error}"
            )
        print(f"  merged: {doc['merged']}, complete: {doc['complete']}")
    if args.expect_complete and not doc["complete"]:
        print("fleet run is not complete", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.fleet import FleetService

    service = FleetService(
        args.root,
        executor=args.executor,
        jobs=args.jobs,
        max_parallel_shards=args.max_parallel_shards,
        max_running=args.max_running,
        max_queue=args.max_queue,
    )

    async def _serve() -> None:
        await service.start(host=args.host, port=args.port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop; Ctrl-C still lands as KeyboardInterrupt
        recovered = service.status_document()["recovered"]
        print(f"fleet service listening on http://{args.host}:{service.port}")
        print(f"  jobs root: {service.root}  executor: {args.executor}")
        print(
            f"  queue: max {args.max_queue} waiting, {args.max_running} running; "
            f"journal recovery: {recovered.get('restored', 0)} restored, "
            f"{recovered.get('requeued', 0)} requeued, "
            f"{recovered.get('failed', 0)} fence-failed"
        )
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        done, _ = await asyncio.wait(
            (serve_task, stop_task), return_when=asyncio.FIRST_COMPLETED
        )
        stop_task.cancel()
        if serve_task in done and serve_task.exception() is not None:
            raise serve_task.exception()  # e.g. the listening socket died
        serve_task.cancel()
        # Graceful drain: refuse new submits, journal `interrupted` for
        # in-flight jobs, kill their shard workers, snapshot the journal.
        print("fleet service shutting down (draining; jobs journaled)")
        await service.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fleet_submit(args: argparse.Namespace) -> int:
    from repro.campaign.spec import load_spec, spec_to_dict
    from repro.fleet import fetch_results, submit_job, wait_for_job

    document = {
        "spec": spec_to_dict(load_spec(args.spec, quick=args.quick)),
        "n_shards": args.shards,
        "jobs": args.jobs,
        "priority": args.priority,
        # The spec is already resolved locally, so quick is not re-applied
        # server-side; the document carries the quick-resolved grid itself.
    }
    job_id = submit_job(args.url, document)
    print(f"submitted job {job_id} to {args.url}")
    if not args.wait:
        return 0
    status = wait_for_job(args.url, job_id, timeout_s=args.timeout)
    print(f"job {job_id}: {status['status']}")
    if status["status"] != "done":
        print(f"  error: {status.get('error')}", file=sys.stderr)
        return 1
    _emit(fetch_results(args.url, job_id), args.output)
    return 0


def _cmd_fleet_cancel(args: argparse.Namespace) -> int:
    from repro.fleet import cancel_job

    reply = cancel_job(args.url, args.job)
    print(f"job {reply['job']}: {reply['status']}")
    return 0


# -------------------------------------------------------------------- chaos --


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile
    import warnings

    from repro.faults.chaos import PROFILES, run_chaos

    if args.list:
        for name, profile in PROFILES.items():
            campaign = profile.spec["campaign"]
            print(
                f"{name}: builder {campaign['builder']}, "
                f"{profile.worker_kills} worker kill(s), "
                f"{profile.cache_truncations} cache truncation(s)"
                + (", hang-once jobs" if profile.hang else "")
            )
        return 0
    progress = print if args.verbose else None
    with warnings.catch_warnings():
        # Quarantine warnings are the harness working as intended.
        warnings.simplefilter("ignore", RuntimeWarning)
        if args.keep:
            report = run_chaos(args.profile, args.keep, progress=progress)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = run_chaos(args.profile, tmp, progress=progress)
    print("\n".join(report.summary_lines()))
    if args.keep:
        print(f"  artifacts kept under: {args.keep}")
    return 0 if report.ok else 1


def _shared(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one argument that several subcommands take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    quick = _shared(
        "--quick",
        action="store_true",
        help="quick mode: the reduced sweep, or the spec's [quick] overrides",
    )
    output = _shared("-o", "--output", help="write the document to this file")
    jobs = _shared(
        "--jobs",
        type=int,
        default=1,
        help="fan seeded repetitions out over N worker processes (per shard)",
    )
    cache_dir = _shared(
        "--cache-dir",
        help="per-seed result cache directory (campaigns default to <out>/cache)",
    )
    out = _shared("--out", help="output directory (default results/campaigns/<name>)")
    verbose = _shared("-v", "--verbose", action="store_true", help="print progress")
    url = _shared(
        "--url", required=True, help="service base URL, e.g. http://127.0.0.1:8642"
    )
    as_json = _shared(
        "--json",
        action="store_true",
        help="emit the machine-readable status document instead of a table",
    )
    expect_complete = _shared(
        "--expect-complete",
        action="store_true",
        help="exit 1 unless every point is done (CI gate)",
    )
    executor = _shared(
        "--executor",
        default="subprocess",
        help="how shards run: subprocess (one OS process per shard, default) "
        "or local (in-process)",
    )
    max_parallel_shards = _shared(
        "--max-parallel-shards",
        type=int,
        default=None,
        help="cap concurrently running shards of a job (default: all at once)",
    )
    shards = _shared("--shards", type=int, default=2, help="number of shards (default 2)")
    channel = _shared(
        "--channel",
        default=None,
        help="ambient channel model for scenarios that do not pin one "
        "(pairwise or sinr; default: pairwise)",
    )
    telemetry = _shared(
        "--telemetry",
        action="store_true",
        help="capture per-station metrics (perf: time the instrumented path)",
    )
    list_names = _shared("--list", action="store_true", help="list the names and exit")
    seed = _shared("--seed", type=int, default=1, help="seed for perf-scenario runs")
    duration = _shared(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per perf scenario (default: the scenario's)",
    )
    spec = _shared("spec", help="path to a campaign .toml spec")
    campaign_target = _shared("target", help="campaign output directory or spec .toml")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Greedy receivers in IEEE 802.11 hotspots: reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list reproducible tables/figures")
    p_list.add_argument(
        "--tag", help="only experiments carrying this tag (e.g. nav, spoof, tcp)"
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run",
        parents=[quick, telemetry, output, jobs, cache_dir, channel],
        help="regenerate one table/figure",
    )
    p_run.add_argument("experiment", help="e.g. fig4, table2, ext_autorate")
    p_run.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="json emits the schema-versioned ExperimentResult document",
    )
    p_run.set_defaults(func=_cmd_run)

    p_campaign = sub.add_parser(
        "campaign", help="declarative sweep campaigns (TOML specs + manifests)"
    )
    csub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    p_crun = csub.add_parser(
        "run",
        parents=[spec, jobs, quick, out, cache_dir, telemetry, verbose],
        help="run (or resume) a campaign spec",
    )
    p_crun.add_argument(
        "--resume",
        action="store_true",
        help="skip points the manifest already marks done",
    )
    p_crun.add_argument(
        "--no-cache", action="store_true", help="disable the per-seed result cache"
    )
    p_crun.add_argument(
        "--retries",
        type=int,
        default=None,
        help="attempts per seeded job before its point fails (default 3)",
    )
    p_crun.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per seeded job; a watchdog kills overrunning "
        "workers and retries (default: no timeout)",
    )
    p_crun.add_argument(
        "--backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay of the exponential retry backoff (default 0.25)",
    )
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cstatus = csub.add_parser(
        "status",
        parents=[campaign_target, quick, expect_complete, as_json],
        help="show a campaign's manifest status",
    )
    p_cstatus.set_defaults(func=_cmd_campaign_status)

    p_creport = csub.add_parser(
        "report",
        parents=[campaign_target, quick, output],
        help="print the aggregated results table",
    )
    p_creport.add_argument(
        "--format", choices=["text", "csv", "json"], default="text"
    )
    p_creport.set_defaults(func=_cmd_campaign_report)

    p_fleet = sub.add_parser(
        "fleet",
        help="sharded campaign execution: split a spec over N worker "
        "processes, heal dead shards, merge byte-identical results",
    )
    fsub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_frun = fsub.add_parser(
        "run",
        parents=[spec, shards, executor, jobs, quick, out, max_parallel_shards, verbose],
        help="run a campaign spec as N shards",
    )
    p_frun.add_argument(
        "--max-shard-attempts",
        type=int,
        default=3,
        help="dispatch attempts per shard before the fleet run fails (default 3)",
    )
    p_frun.set_defaults(func=_cmd_fleet_run)

    p_fworker = fsub.add_parser(
        "worker",
        parents=[jobs, cache_dir],
        help="run one shard of a fleet (internal; launched by the "
        "subprocess executor)",
    )
    p_fworker.add_argument("--spec", required=True, help="path to the fleet spec.json")
    p_fworker.add_argument("--out", required=True, help="this shard's output directory")
    p_fworker.add_argument("--shard", type=int, required=True)
    p_fworker.add_argument("--n-shards", type=int, required=True)
    p_fworker.set_defaults(func=_cmd_fleet_worker)

    p_fstatus = fsub.add_parser(
        "status",
        parents=[as_json, expect_complete],
        help="show a fleet run's shard status",
    )
    p_fstatus.add_argument(
        "target", nargs="?", default=None, help="fleet output directory"
    )
    p_fstatus.add_argument(
        "--url",
        help="query a running fleet service instead of an output directory "
        "(queue depth, per-state job counts, journal lag)",
    )
    p_fstatus.set_defaults(func=_cmd_fleet_status)

    p_fserve = fsub.add_parser(
        "serve",
        parents=[executor, jobs, max_parallel_shards],
        help="HTTP service: POST specs, poll shard status, fetch results",
    )
    p_fserve.add_argument(
        "--root",
        default="results/fleet",
        help="directory for job artifacts (default results/fleet)",
    )
    p_fserve.add_argument("--host", default="127.0.0.1")
    p_fserve.add_argument(
        "--port", type=int, default=8642, help="0 picks a free port (default 8642)"
    )
    p_fserve.add_argument(
        "--max-running",
        type=int,
        default=2,
        help="jobs orchestrated concurrently; the rest queue (default 2)",
    )
    p_fserve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="admission queue bound; a full queue answers 429 + Retry-After "
        "(default 16)",
    )
    p_fserve.set_defaults(func=_cmd_fleet_serve)

    p_fsubmit = fsub.add_parser(
        "submit",
        parents=[spec, url, shards, jobs, quick, output],
        help="submit a spec to a running fleet service",
    )
    p_fsubmit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="admission priority: higher dispatches first (default 0)",
    )
    p_fsubmit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print/fetch results.csv "
        "(survives a service restart window)",
    )
    p_fsubmit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling budget in seconds (default 600)",
    )
    p_fsubmit.set_defaults(func=_cmd_fleet_submit)

    p_fcancel = fsub.add_parser(
        "cancel",
        parents=[url],
        help="cancel a queued or running job on a fleet service",
    )
    p_fcancel.add_argument("job", help="job id as returned by submit")
    p_fcancel.set_defaults(func=_cmd_fleet_cancel)

    p_chaos = sub.add_parser(
        "chaos",
        parents=[list_names, verbose],
        help="self-test the fault-tolerant campaign engine under injected "
        "failures (worker kills, cache/manifest corruption, hung jobs)",
    )
    p_chaos.add_argument(
        "--profile",
        default="quick",
        help="chaos profile to run (see --list; default: quick)",
    )
    p_chaos.add_argument(
        "--keep",
        metavar="DIR",
        help="run under this directory and keep the artifacts "
        "(default: a temp dir, deleted afterwards)",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_perf = sub.add_parser(
        "perf",
        parents=[list_names, seed, duration, output, telemetry, channel],
        help="microbenchmark the simulation core (BENCH_core.json)",
    )
    p_perf.add_argument(
        "scenarios", nargs="*", help="scenario names to time (default: all)"
    )
    p_perf.add_argument(
        "--repeats", type=int, default=3, help="timing repeats; wall_s is the minimum"
    )
    p_perf.add_argument(
        "--check-regression",
        metavar="BASELINE",
        help="exit 1 when any scenario is more than FACTOR x slower than BASELINE",
    )
    p_perf.add_argument(
        "--factor",
        type=float,
        default=None,
        help="regression threshold for --check-regression (default 2.0)",
    )
    p_perf.set_defaults(func=_cmd_perf)

    p_detect = sub.add_parser(
        "detect",
        help="streaming misbehavior detection tooling (equivalence gate)",
    )
    detect_sub = p_detect.add_subparsers(dest="detect_command", required=True)
    p_detect_diff = detect_sub.add_parser(
        "diff",
        help="differential-test streaming vs offline detection (event-"
        "identical on golden traces, live scenarios and fuzzed workloads, "
        "bounded-memory high-water check)",
    )
    p_detect_diff.add_argument(
        "targets",
        nargs="*",
        help="golden trace names and/or perf scenarios (default: every "
        "golden trace, every perf scenario live, plus the fuzz subset)",
    )
    p_detect_diff.add_argument(
        "--golden-dir",
        default=None,
        help="directory holding the committed golden traces "
        "(default: tests/golden of the source checkout)",
    )
    p_detect_diff.add_argument(
        "--fuzz-cases",
        type=int,
        default=None,
        help="number of fuzzed scenarios when running without targets "
        "(default: the quick subset of 10)",
    )
    p_detect_diff.add_argument(
        "--fuzz-duration",
        type=float,
        default=0.05,
        help="simulated seconds per fuzzed scenario (default: 0.05)",
    )
    p_detect_diff.set_defaults(func=_cmd_detect_diff)

    p_metrics = sub.add_parser(
        "metrics",
        parents=[seed, duration, quick, output],
        help="run a scenario/experiment with telemetry and dump metrics",
    )
    p_metrics.add_argument(
        "target", help="perf scenario (repro perf --list) or experiment id"
    )
    p_metrics.add_argument("--format", choices=["table", "json"], default="table")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        parents=[seed, duration, output],
        help="run a perf scenario with a frame tracer and dump frames",
    )
    p_trace.add_argument("target", help="perf scenario name (repro perf --list)")
    p_trace.add_argument(
        "--limit", type=int, default=None, help="cap the number of frame records"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_demo = sub.add_parser("demo", help="run a misbehavior demo")
    p_demo.add_argument("kind", choices=["nav", "spoof", "fake"])
    p_demo.add_argument("--grc", action="store_true", help="enable the countermeasure")
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.add_argument("--duration", type=float, default=2.0, help="simulated seconds")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The library's user-facing errors (unknown names, invalid specs or
    manifests, campaign and fleet failures) exit 2 with their message.
    """
    from repro.campaign import CampaignError
    from repro.fleet import FleetClientError, FleetError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
    except (ValueError, CampaignError, FleetError, FleetClientError) as exc:
        print(exc, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
