"""Streaming-vs-offline differential harness for misbehavior detection.

The streaming pipeline's license to exist is **event-identity with the
offline analyzers** (the :mod:`repro.core.detection.offline` batch
implementations) on every trace, plus the constant-memory promise that
makes it deployable at production rates.  This module is the enforcement
machinery:

* **Canonical event lines** — every
  :class:`~repro.core.detection.report.DetectionEvent` serialized as sorted
  JSON and the whole set canonically ordered, so the offline analyzers'
  per-detector grouping and the stream's time interleaving compare
  byte-for-byte.  The first diverging line is reported with both
  renderings.
* **Chunked replay** — each trace is replayed through a *second* streaming
  pipeline in deterministic chunks with a snapshot/restore round-trip at
  every boundary, so the diff also exercises the checkpoint path, not just
  straight-line feeding.
* **Memory high-water assertion** — the pipeline's summed ``state_size()``
  peak must stay within its declared ``bound()``; a detector that silently
  retains the trace fails the diff even if its events match.

Three target kinds: the committed golden traces (``tests/golden/*.jsonl``,
clean and fault-plan), live perf scenarios (a :class:`DetectionTap` feeding
during simulation, compared against the offline pass over a simultaneously
captured trace), and fuzzed scenarios (random topologies derived from case
seeds, same recipe as ``tests/test_fuzz_determinism.py``).
``repro detect diff`` (CLI) and tests/test_detect_diff.py drive all three.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.detection.offline import analyze_trace
from repro.core.detection.report import DetectionEvent, DetectionReport
from repro.core.detection.streaming import default_pipeline
from repro.phy.params import PhyParams

US_PER_S = 1_000_000.0

#: Deterministic chunk lengths for the replay tier: one-event-at-a-time,
#: small, odd, and large chunks — the boundary cases chunking bugs live at.
REPLAY_CHUNKS = (1, 7, 64, 1024)

#: The always-on fuzz subset.
QUICK_FUZZ_CASES = tuple(range(10))


def canonical_event_lines(events: Iterable[DetectionEvent]) -> tuple[str, ...]:
    """Order-independent byte rendering of a detection event set.

    Events are serialized with sorted keys and sorted by the full field
    tuple: producers that emit the same *set* of events in different orders
    (offline analyzers group by detector; the stream interleaves by time)
    canonicalize to identical lines.
    """
    rows = sorted(
        (e.time_us, e.detector, e.offender, e.observer, e.detail) for e in events
    )
    return tuple(
        json.dumps(
            {
                "time_us": time_us,
                "detector": detector,
                "offender": offender,
                "observer": observer,
                "detail": detail,
            },
            sort_keys=True,
        )
        for time_us, detector, offender, observer, detail in rows
    )


@dataclass(frozen=True)
class DetectRun:
    """One detection pass over one trace: the comparable evidence."""

    source: str  # "offline" | "streaming" | "streaming-chunked" | "live"
    event_lines: tuple[str, ...]
    records: int
    high_water: int
    bound: int

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for line in self.event_lines:
            digest.update(line.encode())
            digest.update(b"\n")
        digest.update(str(self.records).encode())
        return digest.hexdigest()[:16]


@dataclass
class DetectDiffReport:
    """Outcome of one streaming-vs-offline comparison."""

    target: str
    kind: str  # "golden" | "scenario" | "fuzz"
    sources: tuple[str, ...]
    problems: list[str] = field(default_factory=list)
    events: int = 0
    records: int = 0
    high_water: int = 0
    bound: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary_line(self) -> str:
        pair = " vs ".join(self.sources)
        verdict = (
            f"identical ({self.events} events, high-water "
            f"{self.high_water}/{self.bound})"
            if self.ok
            else f"{len(self.problems)} difference(s)"
        )
        return f"{self.kind} {self.target} ({self.records} records): {pair} — {verdict}"


def _diff_event_lines(
    reference: DetectRun, candidate: DetectRun
) -> list[str]:
    """First diverging canonical line (plus count skew), like the trace diff."""
    problems: list[str] = []
    a, b = reference.event_lines, candidate.event_lines
    if a == b:
        return problems
    if len(a) != len(b):
        problems.append(
            f"event count differs: {len(a)} ({reference.source}) "
            f"vs {len(b)} ({candidate.source})"
        )
    for index, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            problems.append(
                f"events diverge at canonical line {index + 1}:\n"
                f"  {reference.source:>18}: {line_a}\n"
                f"  {candidate.source:>18}: {line_b}"
            )
            break
    else:
        if len(a) != len(b):
            longer, run = (a, reference) if len(a) > len(b) else (b, candidate)
            problems.append(
                f"extra event only in {run.source}: {longer[min(len(a), len(b))]}"
            )
    return problems


def run_offline(
    records: Sequence[Any], phy: PhyParams | None = None, **params: Any
) -> DetectRun:
    """The batch reference pass (memory cost: the whole trace, by design)."""
    report = analyze_trace(records, phy=phy, **params)
    _check_capacity(report, len(records))
    return DetectRun(
        source="offline",
        event_lines=canonical_event_lines(report.events),
        records=len(records),
        high_water=len(records),  # offline retains the full trace
        bound=len(records),
    )


def run_streaming(
    records: Sequence[Any],
    phy: PhyParams | None = None,
    **params: Any,
) -> DetectRun:
    """Straight-line streaming pass: feed every record once, in order."""
    pipeline = default_pipeline(phy, **params)
    pipeline.feed_many(records)
    _check_capacity(pipeline.report, len(records))
    return DetectRun(
        source="streaming",
        event_lines=canonical_event_lines(pipeline.events),
        records=len(records),
        high_water=pipeline.high_water,
        bound=pipeline.bound(),
    )


def run_streaming_chunked(
    records: Sequence[Any],
    phy: PhyParams | None = None,
    chunks: Sequence[int] = REPLAY_CHUNKS,
    **params: Any,
) -> DetectRun:
    """Chunked replay with a snapshot/restore round-trip at every boundary.

    Chunk lengths cycle through ``chunks``; at each boundary the pipeline is
    snapshotted and its detector state restored into a **fresh** pipeline
    that continues the stream (events emitted so far are carried over).  Any
    state the snapshot fails to round-trip shows up as an event divergence.
    """
    pipeline = default_pipeline(phy, **params)
    events: list[DetectionEvent] = []
    high_water = 0
    position = 0
    cycle = 0
    while position < len(records):
        size = chunks[cycle % len(chunks)]
        cycle += 1
        for record in records[position : position + size]:
            events.extend(pipeline.feed(record))
        position += size
        high_water = max(high_water, pipeline.high_water)
        state = json.loads(json.dumps(pipeline.snapshot()))  # force JSON round-trip
        resumed = default_pipeline(phy, **params)
        resumed.restore(state)
        resumed.high_water = pipeline.high_water
        pipeline = resumed
    return DetectRun(
        source="streaming-chunked",
        event_lines=canonical_event_lines(events),
        records=len(records),
        high_water=high_water,
        bound=pipeline.bound(),
    )


def _check_capacity(report: DetectionReport, records: int) -> None:
    if len(report.events) >= report.max_events:
        raise RuntimeError(
            f"detection report hit max_events={report.max_events} on a "
            f"{records}-record trace; equivalence is undefined under "
            "truncation — raise max_events or shorten the trace"
        )


def diff_trace_records(
    records: Sequence[Any],
    target: str,
    kind: str = "golden",
    phy: PhyParams | None = None,
    extra_runs: Sequence[DetectRun] = (),
    **params: Any,
) -> DetectDiffReport:
    """Compare offline / streaming / chunked-replay passes over one trace.

    ``extra_runs`` lets callers add independently produced evidence to the
    comparison — the live-tap run of :func:`diff_scenario_live` rides in
    this way.  Every candidate is compared to the offline reference, and
    every streaming run must respect its memory bound.
    """
    records = list(records)
    reference = run_offline(records, phy=phy, **params)
    candidates = [
        run_streaming(records, phy=phy, **params),
        run_streaming_chunked(records, phy=phy, **params),
        *extra_runs,
    ]
    problems: list[str] = []
    high_water = 0
    bound = 0
    for candidate in candidates:
        problems.extend(_diff_event_lines(reference, candidate))
        if candidate.high_water > candidate.bound:
            problems.append(
                f"memory bound violated in {candidate.source}: high-water "
                f"{candidate.high_water} items > bound {candidate.bound}"
            )
        high_water = max(high_water, candidate.high_water)
        bound = candidate.bound
    return DetectDiffReport(
        target=target,
        kind=kind,
        sources=(reference.source, *(c.source for c in candidates)),
        problems=problems,
        events=len(reference.event_lines),
        records=len(records),
        high_water=high_water,
        bound=bound,
    )


# ------------------------------------------------------- golden traces -----


def default_golden_dir() -> Path:
    """``tests/golden`` of the source checkout (where captures commit to)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_trace_paths(golden_dir: str | Path | None = None) -> dict[str, Path]:
    """Committed golden traces by target name: clean runs and fault runs."""
    from repro.perf.golden import (
        GOLDEN_FAULT_RUNS,
        GOLDEN_TRACE_RUNS,
        fault_trace_filename,
        trace_filename,
    )

    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    paths = {name: golden_dir / trace_filename(name) for name in GOLDEN_TRACE_RUNS}
    paths.update(
        {
            f"fault_{key}": golden_dir / fault_trace_filename(key)
            for key in GOLDEN_FAULT_RUNS
        }
    )
    return paths


def diff_golden_trace(
    name: str, path: str | Path, phy: PhyParams | None = None, **params: Any
) -> DetectDiffReport:
    """Diff detection passes over one committed golden trace file."""
    from repro.stats.trace import load_trace_jsonl

    records = load_trace_jsonl(path)
    report = diff_trace_records(records, target=name, kind="golden", phy=phy, **params)
    if not records:
        report.problems.append(f"golden trace {path} is empty")
    return report


# -------------------------------------------------------- live scenarios ---


def diff_scenario_live(
    name: str,
    seed: int | None = None,
    duration_s: float | None = None,
    **params: Any,
) -> DetectDiffReport:
    """Run one perf scenario with a live tap; diff against the offline pass.

    The scenario runs **once** with both a :class:`DetectionTap` (the
    streaming pipeline fed during simulation) and a
    :class:`~repro.stats.trace.FrameTracer` (the retained trace the offline
    analyzers and the replay tiers consume) attached — so the comparison
    also proves the tap sees exactly the transmission stream the tracer
    records, and that attaching it never perturbs the simulation.
    """
    from repro.core.detection.streaming import DetectionTap
    from repro.perf.golden import GOLDEN_TRACE_RUNS
    from repro.perf.scenarios import get_scenario
    from repro.stats.trace import FrameTracer

    spec = get_scenario(name)
    default_seed, default_duration = GOLDEN_TRACE_RUNS.get(name, (1, None))
    if seed is None:
        seed = default_seed
    if duration_s is None:
        duration_s = default_duration if default_duration is not None else spec.duration_s
    built = spec.build(seed)
    phy = built.scenario.phy
    pipeline = default_pipeline(phy, **params)
    # Wrap order matters for equality: the tracer wraps last so it records
    # the stream the tap already saw — both observe every transmission.
    tap = DetectionTap(built.scenario.medium, pipeline)
    tracer = FrameTracer(built.scenario.medium)
    built.scenario.run(duration_s)
    tracer.detach()
    tap.detach()
    live = DetectRun(
        source="live",
        event_lines=canonical_event_lines(pipeline.events),
        records=pipeline.records_seen,
        high_water=pipeline.high_water,
        bound=pipeline.bound(),
    )
    report = diff_trace_records(
        tracer.records,
        target=name,
        kind="scenario",
        phy=phy,
        extra_runs=(live,),
        **params,
    )
    if pipeline.records_seen != len(tracer.records):
        report.problems.append(
            f"live tap saw {pipeline.records_seen} transmissions, "
            f"tracer recorded {len(tracer.records)}"
        )
    return report


# ------------------------------------------------------------ fuzz tier ----


def build_fuzz_case(case_seed: int) -> "Any":
    """One random-but-deterministic detection workload from a case seed.

    Mirrors the determinism fuzzer's recipe (random topology, transport mix,
    greedy misbehavior kind, error model) with the detection-relevant axes
    emphasized: NAV inflation magnitudes around the validator tolerance,
    spoofers (impersonation events), and optional RTS flooders at varying
    rates (flood events on both sides of the default threshold).  All
    randomness comes from ``random.Random(case_seed)`` at build time; the
    simulation runs from ``Scenario(seed=...)``'s own streams.
    """
    from repro.core.greedy import GreedyConfig
    from repro.mac.frames import FrameKind
    from repro.net.scenario import Scenario

    pick = random.Random(case_seed)
    n_pairs = pick.randint(1, 3)
    rts = pick.random() < 0.8
    s = Scenario(seed=7000 + case_seed, rts_enabled=rts)
    greedy_kind = pick.choice(["none", "nav", "nav", "spoof"])
    for i in range(n_pairs):
        s.add_wireless_node(f"S{i}", position=(pick.uniform(0, 20), pick.uniform(0, 20)))
    for i in range(n_pairs):
        greedy = None
        if i == n_pairs - 1:
            if greedy_kind == "nav":
                frames = frozenset({FrameKind.CTS if rts else FrameKind.ACK})
                greedy = GreedyConfig.nav_inflator(
                    pick.uniform(1.0, 20_000.0), frames
                )
            elif greedy_kind == "spoof" and n_pairs > 1:
                greedy = GreedyConfig.ack_spoofer(victims=frozenset({"R0"}))
        s.add_wireless_node(
            f"R{i}", position=(pick.uniform(0, 20), pick.uniform(0, 20)), greedy=greedy
        )
    for i in range(n_pairs):
        if pick.random() < 0.5:
            src, _ = s.udp_flow(f"S{i}", f"R{i}")
        else:
            src, _ = s.tcp_flow(f"S{i}", f"R{i}")
        src.start()
    if pick.random() < 0.5:
        from repro.faults import FaultPlan, RtsFloodConfig

        s.install_faults(
            FaultPlan(
                rts_flood=RtsFloodConfig(
                    period_us=pick.choice([1_000.0, 4_000.0, 20_000.0]),
                    nav_us=pick.uniform(5_000.0, 30_000.0),
                )
            )
        )
    return s


def diff_fuzz_case(
    case_seed: int, duration_s: float = 0.05, **params: Any
) -> DetectDiffReport:
    """Build, run and trace one fuzz case; diff the detection passes."""
    from repro.stats.trace import FrameTracer

    scenario = build_fuzz_case(case_seed)
    tracer = FrameTracer(scenario.medium)
    scenario.run(duration_s)
    tracer.detach()
    report = diff_trace_records(
        tracer.records,
        target=f"case{case_seed}",
        kind="fuzz",
        phy=scenario.phy,
        **params,
    )
    if not tracer.records:
        report.problems.append(f"fuzz case {case_seed} produced no traffic")
    return report


# ------------------------------------------------------------- the sweep ---


def diff_detection(
    targets: Iterable[str] | None = None,
    golden_dir: str | Path | None = None,
    fuzz_cases: Sequence[int] = QUICK_FUZZ_CASES,
    fuzz_duration_s: float = 0.05,
    progress: Any = None,
    **params: Any,
) -> list[DetectDiffReport]:
    """The full gate: golden traces + live scenarios + the fuzz subset.

    ``targets`` limits the golden/scenario tiers to named targets (a golden
    trace name like ``grc_nav``/``fault_jammer`` or a perf scenario name);
    ``None`` runs every committed golden trace, every perf scenario live,
    and ``fuzz_cases`` fuzzed workloads — the ``repro detect diff`` default.
    Unknown targets and a ``fuzz_duration_s`` outside ``0 < d < inf`` raise
    before any target is diffed.
    """
    from repro.perf.scenarios import SCENARIOS

    if not 0.0 < fuzz_duration_s < math.inf:
        raise ValueError(
            f"fuzz_duration_s must be positive and finite, got {fuzz_duration_s}"
        )
    say = progress if progress is not None else lambda _m: None
    reports: list[DetectDiffReport] = []
    goldens = golden_trace_paths(golden_dir)
    selected = set(targets) if targets is not None else None
    unknown = (
        selected - set(goldens) - set(SCENARIOS) if selected is not None else set()
    )
    if unknown:
        raise KeyError(
            f"unknown detect diff target(s) {sorted(unknown)}; known: "
            f"{sorted(set(goldens) | set(SCENARIOS))}"
        )

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    for name, path in goldens.items():
        if not wanted(name):
            continue
        if not path.exists():
            report = DetectDiffReport(
                target=name, kind="golden", sources=("offline",),
                problems=[f"missing golden trace {path}"],
            )
        else:
            report = diff_golden_trace(name, path, **params)
        reports.append(report)
        say(report.summary_line())
    for name in SCENARIOS:
        if not wanted(name):
            continue
        report = diff_scenario_live(name, **params)
        reports.append(report)
        say(report.summary_line())
    if selected is None:
        for case_seed in fuzz_cases:
            report = diff_fuzz_case(case_seed, duration_s=fuzz_duration_s, **params)
            reports.append(report)
            say(report.summary_line())
    return reports


__all__ = [
    "QUICK_FUZZ_CASES",
    "REPLAY_CHUNKS",
    "DetectDiffReport",
    "DetectRun",
    "build_fuzz_case",
    "canonical_event_lines",
    "default_golden_dir",
    "diff_detection",
    "diff_fuzz_case",
    "diff_golden_trace",
    "diff_scenario_live",
    "diff_trace_records",
    "golden_trace_paths",
    "run_offline",
    "run_streaming",
    "run_streaming_chunked",
]
