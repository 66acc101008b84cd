"""Per-layer metrics: where the wrappers go and what each number moves.

:func:`install` puts a span around the public entry points of each
``repro`` layer (plus every event callback, attributed to the layer that
defines it).  :func:`layer_metrics` turns the traced ops into the per-layer
table.  ``*.self_share`` is a layer's self time over the ops' wall time, so
a machine that runs slower for a while moves numerator and denominator
together; counts are exact and repeat from run to run.

``LAYER_METRICS`` records, before any optimisation, which end-to-end metric
on which workload each per-layer metric should move.
"""

from __future__ import annotations

import os
from statistics import median
from typing import Any, Iterable

from perfbench.trace import Installer, Tracer, traced

#: name -> (unit, end-to-end metric it should move, workload)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "sim.events": ("count", "op_p50_rel", "paper_hotspots"),
    "sim.dispatch_share": ("share", "op_p50_rel", "paper_hotspots"),
    "net.build_share": ("share", "pairwise_p50_rel", "dense_grid"),
    "phy.medium.self_share": ("share", "pairwise_p50_rel/sinr_p50_rel", "dense_grid"),
    "phy.medium.transmits": ("count", "pairwise_p50_rel/sinr_p50_rel", "dense_grid"),
    "phy.fanout": ("ratio", "none: simulated, must stay identical", "all"),
    "phy.corrupt_ratio": ("ratio", "none: simulated, must stay identical", "all"),
    "phy.error.self_share": ("share", "op_p50_rel", "paper_hotspots"),
    "mac.dcf.self_share": ("share", "op_p50_rel", "paper_hotspots"),
    "mac.tx_attempts": ("count", "none: simulated, must stay identical", "all"),
    "mac.retry_ratio": ("ratio", "none: simulated, must stay identical", "all"),
    "transport.self_share": ("share", "op_p50_rel", "paper_hotspots"),
    "detection.self_share": ("share", "op_p50_rel", "paper_hotspots"),
    "detection.events": ("count", "op_p50_rel", "paper_hotspots"),
    "fleet.submit_ms": ("ms", "job_p50_rel", "sweep_service"),
    "fleet.queue_wait_share": ("share", "job_p50_rel", "sweep_service"),
    "fleet.run.self_share": ("share", "job_p50_rel", "sweep_service"),
    "fleet.merge.self_share": ("share", "job_p50_rel", "sweep_service"),
    "fleet.journal.appends": ("count", "job_p50_rel", "sweep_service"),
    "fleet.polls": ("count", "job_p50_rel", "sweep_service"),
    "campaign.manifest.saves": ("count", "warm_p50_rel/job_p50_rel", "sweep_service"),
    "campaign.manifest.bytes_written": ("bytes", "warm_p50_rel/job_p50_rel", "sweep_service"),
    "campaign.manifest.self_share": ("share", "warm_p50_rel/job_p50_rel", "sweep_service"),
    "campaign.reports.self_share": ("share", "warm_p50_rel", "sweep_service"),
    "runtime.cache.hit_ratio": ("ratio", "warm_p50_rel", "sweep_service"),
    "runtime.cache.get_share": ("share", "warm_p50_rel", "sweep_service"),
    "runtime.cache.put_share": ("share", "job_p50_rel", "sweep_service"),
    "runtime.jobspec.run_share": ("share", "job_p50_rel", "sweep_service"),
    "runtime.io.fsyncs": ("count", "job_p50_rel/warm_p50_rel", "sweep_service"),
    "runtime.io.fsync_share": ("share", "job_p50_rel/warm_p50_rel", "sweep_service"),
    "obs.registry_writes": ("count", "none: must be 0 (zero cost when off)", "all"),
    "other.self_share": ("share", "none: residual outside every traced layer", "all"),
}

#: Metrics of the harness layers, which only ``sweep_service`` drives; the
#: simulation workloads leave them out of their results.
HARNESS_PREFIXES = ("fleet.", "campaign.", "runtime.")

#: self-share metric -> the span names whose self time it sums
SHARE_SPANS: dict[str, tuple[str, ...]] = {
    "sim.dispatch_share": ("sim.run",),
    "net.build_share": ("net.build",),
    "phy.medium.self_share": ("phy.medium",),
    "phy.error.self_share": ("phy.error",),
    "mac.dcf.self_share": ("mac.dcf",),
    "transport.self_share": ("transport",),
    "detection.self_share": ("detection",),
    "fleet.run.self_share": ("fleet.run", "fleet.shard"),
    "fleet.merge.self_share": ("fleet.merge",),
    "campaign.manifest.self_share": ("campaign.manifest",),
    "campaign.reports.self_share": ("campaign.reports",),
    "runtime.cache.get_share": ("runtime.cache.get",),
    "runtime.cache.put_share": ("runtime.cache.put",),
    "runtime.jobspec.run_share": ("runtime.jobspec.run",),
    "runtime.io.fsync_share": ("runtime.io.fsync",),
}


def install(installer: Installer) -> None:
    """Wrap each layer's public entry points (the traced run only)."""
    from repro.campaign import manifest, runner
    from repro.core.detection import fake, nav, report, spoof
    from repro.fleet import executor, journal, merge, run, service
    from repro.mac import dcf
    from repro.obs import registry
    from repro.phy import error, medium
    from repro.runtime import cache, jobspec
    from repro.sim import engine
    from repro.transport import tcp, udp

    tracer = installer.tracer
    method = installer.method

    # repro.sim: the loop's own time is Simulator.run's self time; every
    # event callback gets a span named after its layer.
    method(engine.Simulator, "run", "sim.run", keep=True)
    installer.scheduler(engine.Simulator, ("schedule", "schedule_at", "call_after", "call_at"))

    # repro.phy
    method(medium.Radio, "transmit", "phy.medium")
    method(medium.Medium, "transmit", "phy.medium",
           after=lambda *_args: tracer.count("phy.transmits"))
    method(error.BitErrorModel, "is_corrupted", "phy.error")
    method(error.BitErrorModel, "corruption_plan", "phy.error")

    # repro.mac: what the radio and the transport call on the MAC.
    def received(_result: Any, _mac: Any, _frame: Any, corrupted: bool, *_rest: Any) -> None:
        tracer.count("phy.receives")
        if corrupted:
            tracer.count("phy.receives_corrupted")

    method(dcf.DcfMac, "phy_receive", "mac.dcf", after=received)
    for name in ("phy_busy", "phy_idle", "phy_tx_done", "send"):
        method(dcf.DcfMac, name, "mac.dcf")

    # repro.transport
    for cls in (tcp.TcpSender, tcp.TcpReceiver, udp.UdpSink, udp.CbrSource, udp.BacklogSource):
        method(cls, "receive", "transport")

    # repro.core.detection (in-node GRC detectors and the report they feed)
    method(nav.NavValidator, "observe_and_validate", "detection")
    method(spoof.RssiSpoofDetector, "observe_data", "detection")
    method(spoof.RssiSpoofDetector, "is_spoofed", "detection")
    method(spoof.CrossLayerSpoofDetector, "on_mac_acked", "detection")
    method(spoof.CrossLayerSpoofDetector, "on_tcp_retransmit", "detection")
    method(fake.FakeAckDetector, "evaluate", "detection")
    method(report.DetectionReport, "record", "detection")

    # repro.fleet
    method(service.FleetService, "submit", "fleet.submit", keep=True)
    method(service.FleetService, "job_status", "fleet.status")
    installer.function(run, "run_fleet_async", "fleet.run")
    method(executor.LocalExecutor, "run_shard", "fleet.shard", keep=True)
    installer.function(merge, "merge_fleet", "fleet.merge")
    method(journal.JobJournal, "append", "fleet.journal.append", keep=True)

    # repro.campaign
    installer.function(runner, "run_campaign", "campaign.run")
    installer.function(runner, "write_reports", "campaign.reports")

    method(manifest.Manifest, "save", "campaign.manifest", keep=True)
    write_text = manifest.atomic_write_text

    def write_manifest(path: Any, text: str, **kwargs: Any) -> None:
        tracer.count("campaign.manifest.bytes", len(text.encode()))
        write_text(path, text, **kwargs)

    installer.replace(manifest, "atomic_write_text", write_manifest)

    # repro.runtime
    method(cache.ResultCache, "get", "runtime.cache.get", keep=True)
    method(cache.ResultCache, "put", "runtime.cache.put", keep=True)
    method(jobspec.JobSpec, "run", "runtime.jobspec.run", keep=True)
    # os.fsync, which every durable writer in repro.runtime.io calls.
    installer.replace(os, "fsync", traced(tracer, os.fsync, "runtime.io.fsync", keep=False))

    # repro.obs: writes must never happen with telemetry off.
    for name in ("inc", "gauge", "observe"):
        method(registry.MetricsRegistry, name, "obs.write")


def layer_metrics(tracer: Tracer, ops: list[tuple[Any, float, dict[str, float]]],
                  pass_size: int) -> dict[str, float]:
    """The per-layer table over traced ops ``(op id, seconds, counts)``.

    Shares are taken over every traced op.  Counts (per op) and the ratios
    of counts are taken over the first ``pass_size`` ops, one pass over the
    input pool, which holds every input exactly once: they repeat exactly at
    a seed however many ops the run managed.
    """
    ids = [op for op, _seconds, _counts in ops]
    wall = sum(seconds for _op, seconds, _counts in ops)
    one_pass = ops[:pass_size]

    def count(name: str) -> float:
        """Total over one pass of a count the workload reported itself."""
        return sum(counts.get(name, 0.0) for _op, _seconds, counts in one_pass)

    def traced_count(name: str) -> float:
        """Total over one pass of a count the wrappers made."""
        return sum(tracer.counts.get((op, name), 0.0) for op, _seconds, _counts in one_pass)

    def calls(name: str) -> float:
        return float(sum(tracer.calls.get((op, name), 0) for op, _seconds, _counts in one_pass))

    def per_op(total: float) -> float:
        return total / len(one_pass)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        metric: sum(tracer.self_time.get((op, name), 0.0) for op in ids for name in spans) / wall
        for metric, spans in SHARE_SPANS.items()
    }
    out["sim.events"] = per_op(count("sim.events"))
    transmits = traced_count("phy.transmits")
    out["phy.medium.transmits"] = per_op(transmits)
    receives = traced_count("phy.receives")
    out["phy.fanout"] = ratio(receives, transmits)
    out["phy.corrupt_ratio"] = ratio(traced_count("phy.receives_corrupted"), receives)
    attempts = count("mac.tx_attempts")
    out["mac.tx_attempts"] = per_op(attempts)
    out["mac.retry_ratio"] = ratio(count("mac.retries"), attempts)
    out["detection.events"] = per_op(count("detection.events"))
    out["fleet.submit_ms"] = median(
        counts.get("fleet.submit_s", 0.0) for _op, _seconds, counts in ops) * 1e3
    out["fleet.polls"] = per_op(count("fleet.polls"))
    out["fleet.journal.appends"] = per_op(calls("fleet.journal.append"))
    out["campaign.manifest.saves"] = per_op(calls("campaign.manifest"))
    out["campaign.manifest.bytes_written"] = per_op(traced_count("campaign.manifest.bytes"))
    hits = count("runtime.cache.hits")
    out["runtime.cache.hit_ratio"] = ratio(hits, hits + count("runtime.cache.misses"))
    out["runtime.io.fsyncs"] = per_op(calls("runtime.io.fsync"))
    out["obs.registry_writes"] = float(sum(
        n for (_op, name), n in tracer.calls.items() if name == "obs.write"))

    # Queue wait: from the submit handler returning to the orchestrator
    # starting, per op, from the individually kept spans.
    submit_end: dict[Any, float] = {}
    run_start: dict[Any, float] = {}
    for _sid, name, start, end, _parent, op in tracer.spans:
        if name == "fleet.submit":
            submit_end[op] = end
        elif name == "fleet.run":
            run_start[op] = start
    waited = sum(max(0.0, run_start[op] - submit_end[op])
                 for op in ids if op in submit_end and op in run_start)
    out["fleet.queue_wait_share"] = waited / wall

    out["other.self_share"] = sum(residual_self_time(tracer, ids).values()) / wall
    return out


def residual_self_time(tracer: Tracer, ids: Iterable[Any]) -> dict[str, float]:
    """Self time of every span no ``*_share`` metric counts, by name.

    Includes the op span itself: the time inside an op when no traced
    layer was running on any thread.
    """
    named = {name for spans in SHARE_SPANS.values() for name in spans}
    wanted = set(ids)
    residual: dict[str, float] = {}
    for (op, name), seconds in tracer.self_time.items():
        if op in wanted and name not in named:
            residual[name] = residual.get(name, 0.0) + seconds
    return residual
