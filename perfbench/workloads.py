"""The three benchmark workloads: inputs from a seed, one op, its checks.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned.  ``op`` returns the wall time of each of
its parts, the exact counts the per-layer table reports, and its simulated
outputs keyed by input, which the runner checks for repeatability and
folds into the workload's ``outputs_digest``.

Inputs come only from the workload seed: a small pool of scenario seeds (or
campaign specs) is drawn from it and ops cycle through the pool, so every
(topology, seed) input recurs within a run and its outputs can be compared.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

from repro.campaign import runner as campaign_runner
from repro.campaign.spec import spec_from_dict
from repro.fleet import client as fleet_client
from repro.fleet.service import ServiceThread
from repro.perf.scenarios import get_scenario

US_PER_S = 1_000_000.0

#: Distinct inputs per run; ops cycle through them.
POOL_SIZE = 32


class OpFailed(Exception):
    """An op ran but its outputs are wrong."""


class Outputs:
    """Simulated outputs by input; a repeated input must repeat exactly."""

    def __init__(self) -> None:
        self.seen: dict[str, str] = {}

    def add(self, outputs: dict[str, Any]) -> None:
        for key, value in outputs.items():
            blob = json.dumps(value, sort_keys=True)
            previous = self.seen.setdefault(key, blob)
            if previous != blob:
                raise OpFailed(f"input {key} gave different outputs on a repeat")

    def digest(self) -> str:
        """Hash of every input's outputs: equal runs at one seed agree."""
        blob = json.dumps(self.seen, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def no_span(_name: str) -> ContextManager[Any]:
    return nullcontext()


@dataclass
class OpResult:
    #: wall seconds of the op, and of each of the workload's ``parts``
    seconds: float = 0.0
    parts: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: input key -> canonical simulated outputs for that input
    outputs: dict[str, Any] = field(default_factory=dict)


def _seed_pool(label: str, seed: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 1_000_000) for _ in range(POOL_SIZE)]


def pool_seed(seeds: list[int], index: int, k: int) -> int:
    """Seed of the ``k``-th topology in op ``index``.

    Topologies take the pool at different offsets, so each op mixes seeds
    and op costs vary less with how heavy any one seed happens to be.
    """
    return seeds[(index + k) % len(seeds)]


def _add(counts: dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def run_topology(name: str, seed: int, slice_s: float, result: OpResult,
                 span: Callable[[str], ContextManager[Any]]) -> float:
    """Build one registered topology and run it for ``slice_s``.

    Returns the wall seconds of build plus run; checks and records the
    outputs after the clock has stopped.
    """
    spec = get_scenario(name)
    start = time.perf_counter()
    with span("net.build"):
        built = spec.build(seed)
    scenario = built.scenario
    scenario.run(slice_s)
    seconds = time.perf_counter() - start
    metrics = built.metrics(slice_s * US_PER_S)
    events = scenario.sim.events_processed
    if events <= 0:
        raise OpFailed(f"{name} seed {seed}: no events processed")
    for key, value in metrics.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise OpFailed(f"{name} seed {seed}: metric {key}={value!r}")
    stats = [mac.stats for mac in scenario.macs.values()]
    attempts = sum(s.tx_rts + s.tx_data for s in stats)
    retries = sum(s.retries for s in stats)
    transmits = scenario.medium.frames_sent
    detections = scenario.report.count()
    counts = result.counts
    _add(counts, "sim.events", events)
    _add(counts, "mac.tx_attempts", attempts)
    _add(counts, "mac.retries", retries)
    _add(counts, "detection.events", detections)
    result.outputs[f"{name}/{seed}"] = {
        "events": events,
        "metrics": metrics,
        "transmits": transmits,
        "tx_attempts": attempts,
        "retries": retries,
        "detections": detections,
    }
    return seconds


class _SimWorkload:
    """Simulation ops over a seed pool; nothing to start or stop."""

    name = ""
    #: the op's two parts, each timed on its own: one per channel model
    parts = ("pairwise", "sinr")
    #: whether ops go through repro.fleet, repro.campaign and repro.runtime
    harness = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = _seed_pool(self.name, seed)
        self.span = no_span

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


class PaperHotspots(_SimWorkload):
    """The paper's own small topologies, each built and run once per op.

    Stresses event dispatch, DCF, transport, the error model and in-node
    detection on media with 3-4 radios.  ``pairwise`` is the five topologies
    on the pairwise medium, ``sinr`` the SINR one.
    """

    name = "paper_hotspots"
    #: all on the pairwise medium except the last, the SINR one
    topologies = ("fig1_nav_udp", "fig8_nav_tcp", "spoof_tcp", "grc_nav", "grc_spoof",
                  "hidden_node_sinr")
    slice_s = 0.3

    def op(self, index: int) -> OpResult:
        result = OpResult()
        seconds = [
            run_topology(name, pool_seed(self.seeds, index, k), self.slice_s, result, self.span)
            for k, name in enumerate(self.topologies)
        ]
        result.parts = {"pairwise": sum(seconds[:-1]), "sinr": seconds[-1]}
        result.seconds = sum(seconds)
        return result


class DenseGrid(_SimWorkload):
    """Many-radio grids where the medium's per-transmit work dominates.

    ``pairwise`` is ``dense_hotspot`` (240 radios, isolated cells, long
    reach lists); ``sinr`` is ``dense_hotspot_sinr`` (120 radios, coupled
    cells, interference sums).  Timed separately so a gain on one channel
    model that costs the other shows.
    """

    name = "dense_grid"
    slice_s = 0.02

    def op(self, index: int) -> OpResult:
        result = OpResult()
        result.parts = {
            "pairwise": run_topology("dense_hotspot", pool_seed(self.seeds, index, 0),
                                     self.slice_s, result, self.span),
            "sinr": run_topology("dense_hotspot_sinr", pool_seed(self.seeds, index, 1),
                                 self.slice_s, result, self.span),
        }
        result.seconds = sum(result.parts.values())
        return result


def sweep_spec(label: str, seeds: list[int]) -> dict[str, Any]:
    """A quick campaign: 12 grid points x 2 seeds of tiny simulated slices."""
    return {
        "campaign": {
            "name": label,
            "builder": "nav_pairs",
            "seeds": seeds,
            "duration_s": 0.02,
        },
        "params": {"inflate_frames": ["CTS"]},
        "sweep": {
            "transport": ["udp", "tcp"],
            "nav_inflation_us": [0.0, 300.0, 600.0, 3100.0, 10000.0, 31000.0],
        },
    }


SWEEP_POINTS = 12
SWEEP_SHARDS = 2
#: Fixed client poll interval; each poll is served on the service loop and
#: competes with the in-process shards for the interpreter lock.
POLL_S = 0.01


class SweepService:
    """A campaign job through the in-process fleet service, then warm.

    ``job``: POST a spec, poll ``GET /jobs/<id>`` until it is done, fetch the
    merged ``results.csv`` (journal fsyncs, manifests, cache puts, merge).
    ``warm``: run the same spec again in this process against the job's
    cache, which must hit on every seed (cache reads, manifest saves).
    """

    name = "sweep_service"
    parts = ("job", "warm")
    harness = True

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.specs = []
        for k in range(POOL_SIZE):
            seeds = sorted(rng.sample(range(1, 1_000_000), 2))
            self.specs.append(sweep_spec(f"sweep-{seed}-{k}", seeds))
        self.workdir = workdir
        self.service: ServiceThread | None = None
        self.span = no_span

    def start(self) -> None:
        self.service = ServiceThread(self.workdir / "service", executor="local").start()
        self.url = f"http://127.0.0.1:{self.service.port}"

    def op(self, index: int) -> OpResult:
        document = self.specs[index % len(self.specs)]
        result = OpResult()
        start = time.perf_counter()
        with self.span("client.submit"):
            job = fleet_client.submit_job(
                self.url, {"spec": document, "n_shards": SWEEP_SHARDS}
            )
        submitted = time.perf_counter()
        polls = 0
        while True:
            with self.span("client.poll"):
                status = fleet_client.get_json(self.url, f"/jobs/{job}")
            polls += 1
            if status["status"] in fleet_client.TERMINAL_STATES:
                break
            time.sleep(POLL_S)
        if status["status"] != "done":
            raise OpFailed(f"job {job} ended {status['status']}: {status.get('error')}")
        with self.span("client.fetch"):
            csv_text = fleet_client.fetch_results(self.url, job)
        job_done = time.perf_counter()

        job_dir = self.workdir / "service" / "jobs" / job
        warm_dir = self.workdir / "warm" / job
        spec = spec_from_dict(document, source="<perfbench>")
        warm = campaign_runner.run_campaign(
            spec, out_dir=warm_dir, jobs=1, cache_dir=job_dir / "cache"
        )
        warm_done = time.perf_counter()
        result.parts = {"job": job_done - start, "warm": warm_done - job_done}
        result.seconds = warm_done - start

        rows = len(csv_text.strip().splitlines()) - 1
        if rows != SWEEP_POINTS:
            raise OpFailed(f"job {job}: {rows} result rows, expected {SWEEP_POINTS}")
        stats = warm.cache_stats or {}
        expected_hits = SWEEP_POINTS * len(spec.seeds)
        if stats.get("hits") != expected_hits or stats.get("misses") != 0:
            raise OpFailed(f"warm re-run of {job}: cache {stats}, expected {expected_hits} hits")
        fingerprint = campaign_runner.metrics_fingerprint(job_dir)
        if campaign_runner.metrics_fingerprint(warm_dir) != fingerprint:
            raise OpFailed(f"warm re-run of {job}: metrics fingerprint differs from the job's")
        result.counts = {
            "fleet.submit_s": submitted - start,
            "fleet.polls": polls,
            "runtime.cache.hits": stats["hits"],
            "runtime.cache.misses": stats["misses"],
        }
        result.outputs[document["campaign"]["name"]] = {
            "results_csv": hashlib.sha256(csv_text.encode()).hexdigest(),
            "fingerprint": hashlib.sha256(
                json.dumps(fingerprint, sort_keys=True).encode()
            ).hexdigest(),
        }
        return result

    def stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    w.name: w for w in (PaperHotspots, DenseGrid, SweepService)
}
