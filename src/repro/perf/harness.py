"""Reproducible microbenchmark harness for the simulation core.

Times the registered :mod:`repro.perf.scenarios` and writes a
``BENCH_core.json`` document — the repo's wall-clock trajectory for the
*inner* (per-seed) simulation loop, complementing ``BENCH_parallel.json``
(outer-loop fan-out, PR 1) and the campaign manifests (PR 2).

Schema (``bench-core/1``)::

    {
      "schema": "bench-core/1",
      "seed": 1, "repeats": 3,
      "scenarios": {
        "fig1_nav_udp": {
          "sim_duration_s": 2.0,
          "runs_s": [..],          # raw wall seconds, one per repeat
          "wall_s": ..,            # minimum over repeats (noise floor)
          "events": ..,            # events processed in one run
          "events_per_s": ..,      # events / wall_s
          "metrics": {..}          # per-flow goodputs (determinism probe)
        }, ...
      },
      "speedup": {"fig1_nav_udp": 1.7, ...}   # only with a comparison file
    }

``wall_s`` is the *minimum* over repeats: scheduling noise only ever adds
time, so the minimum is the most stable estimator for regression gating.
The per-scenario ``metrics`` double as a cheap equivalence probe: two
harness runs at the same seed must report identical metrics, whatever the
wall clock says.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.perf.scenarios import SCENARIOS, get_scenario

US_PER_S = 1_000_000.0

SCHEMA = "bench-core/1"

#: ``--check-regression`` gate: fail when a scenario is more than this many
#: times slower than the committed baseline.  Deliberately loose (2x) so the
#: gate survives noisy CI machines while still catching real regressions.
REGRESSION_FACTOR = 2.0


def time_scenario(
    name: str,
    seed: int = 1,
    repeats: int = 3,
    duration_s: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
    telemetry: bool = False,
    backend: str | None = None,
) -> dict[str, Any]:
    """Build and run one scenario ``repeats`` times; return its bench entry.

    Only the event loop (``Simulator.run``) is timed — scenario construction
    (including any backend precomputation: reach tables, DCF transition
    tables) is excluded, so the number tracks the per-seed inner-loop cost
    that dominates ``run_all.py`` and campaign grids.  ``telemetry=True``
    builds each run inside a live :func:`repro.obs.capture`, which is how
    the 2x regression gate measures the instrumented (hooks-on) code path.
    ``backend`` selects a simulation backend for the build (None = ambient).
    """
    from repro.obs import MetricsRegistry, capture
    from repro.sim.backend import use_backend

    spec = get_scenario(name)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    sim_s = spec.duration_s if duration_s is None else float(duration_s)
    if sim_s <= 0:
        raise ValueError(f"duration_s must be positive, got {sim_s}")
    runs: list[float] = []
    events = 0
    metrics: dict[str, float] = {}
    for _ in range(repeats):
        with capture(MetricsRegistry(enabled=telemetry)):
            with use_backend(backend):
                built = spec.build(seed)
            built.scenario.warm_caches()
            sim = built.scenario.sim
            start = clock()
            built.scenario.run(sim_s)
            runs.append(clock() - start)
        events = sim.events_processed
        metrics = built.metrics(sim_s * US_PER_S)
    wall = min(runs)
    return {
        "sim_duration_s": sim_s,
        "runs_s": runs,
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "metrics": metrics,
    }


def run_benchmark(
    names: Iterable[str] | None = None,
    seed: int = 1,
    repeats: int = 3,
    duration_s: float | None = None,
    progress: Callable[[str], None] | None = None,
    telemetry: bool = False,
    backend: str | None = None,
) -> dict[str, Any]:
    """Time every requested scenario and assemble the BENCH_core document.

    ``telemetry=True`` times the instrumented code path (live metrics
    registry attached to every scenario) and records that in the document.
    ``backend`` selects the simulation backend; the resolved name is
    recorded in the document so a baseline file always says which backend
    produced it.
    """
    from repro.sim.backend import resolve_backend

    selected = list(names) if names else list(SCENARIOS)
    say = progress if progress is not None else lambda _m: None
    scenarios: dict[str, Any] = {}
    for name in selected:
        entry = time_scenario(
            name, seed=seed, repeats=repeats, duration_s=duration_s,
            telemetry=telemetry, backend=backend,
        )
        scenarios[name] = entry
        say(
            f"{name}: {entry['wall_s']:.3f}s wall for {entry['sim_duration_s']:g}s "
            f"simulated ({entry['events_per_s']:,.0f} events/s)"
        )
    return {
        "schema": SCHEMA,
        "seed": seed,
        "repeats": repeats,
        "python": platform.python_version(),
        "telemetry": telemetry,
        "backend": resolve_backend(backend).name,
        "scenarios": scenarios,
    }


def attach_speedup(bench: Mapping[str, Any], baseline: Mapping[str, Any]) -> dict[str, Any]:
    """Return ``bench`` with a ``speedup`` section versus ``baseline``.

    ``speedup[name] = baseline_wall / bench_wall`` — above 1.0 means the
    current core is faster than the reference measurement.
    """
    out = dict(bench)
    speedup = {}
    base_scenarios = baseline.get("scenarios", {})
    for name, entry in bench.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if base and entry["wall_s"] > 0:
            speedup[name] = base["wall_s"] / entry["wall_s"]
    out["speedup"] = speedup
    out["baseline_wall_s"] = {
        name: base_scenarios[name]["wall_s"]
        for name in speedup
    }
    return out


def check_regression(
    bench: Mapping[str, Any],
    baseline: Mapping[str, Any],
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Compare ``bench`` against a committed baseline; return failure messages.

    A scenario fails when its wall time exceeds ``factor`` times the baseline
    wall time.  Scenarios absent from the baseline are skipped (new scenarios
    must not break old gates).  Each message names the regressed scenario and
    quantifies the slowdown — both the wall-clock ratio and the events/s
    drop when the baseline recorded one — so a CI failure is diagnosable
    from the log alone (``tests/test_perf_harness.py`` pins the format).

    When a scenario ran at the baseline's seed and simulated duration, its
    ``events`` and ``metrics`` are deterministic, so any difference from the
    baseline is reported too, with both values: behaviour drift that the
    loose wall-time factor would never catch.
    """
    problems = []
    base_scenarios = baseline.get("scenarios", {})
    seed = bench.get("seed")
    same_seed = seed is not None and seed == baseline.get("seed")
    for name, entry in bench.get("scenarios", {}).items():
        base = base_scenarios.get(name)
        if base is None:
            continue
        if same_seed and entry.get("sim_duration_s") == base.get("sim_duration_s"):
            problems.extend(_behaviour_drift(name, entry, base))
        limit = factor * base["wall_s"]
        if entry["wall_s"] > limit:
            slowdown = entry["wall_s"] / base["wall_s"]
            message = (
                f"{name}: regressed {slowdown:.2f}x — wall {entry['wall_s']:.3f}s "
                f"vs baseline {base['wall_s']:.3f}s (limit {limit:.3f}s "
                f"at factor {factor:g})"
            )
            base_rate = base.get("events_per_s")
            if base_rate:
                message += (
                    f"; {entry.get('events_per_s', 0.0):,.0f} events/s "
                    f"vs baseline {base_rate:,.0f}"
                )
            problems.append(message)
    return problems


def _behaviour_drift(
    name: str, entry: Mapping[str, Any], base: Mapping[str, Any]
) -> list[str]:
    """Exact-equality messages for one scenario run at the baseline's settings."""
    problems = []
    if "events" in base and entry.get("events") != base["events"]:
        problems.append(
            f"{name}: events {entry.get('events')} vs baseline {base['events']} "
            "(behaviour drift)"
        )
    base_metrics = base.get("metrics")
    if base_metrics is not None:
        metrics = entry.get("metrics", {})
        for key in sorted(set(metrics) | set(base_metrics)):
            if metrics.get(key) != base_metrics.get(key):
                problems.append(
                    f"{name}: metric {key} {metrics.get(key)!r} vs baseline "
                    f"{base_metrics.get(key)!r} (behaviour drift)"
                )
    return problems


def write_bench(path: str | Path, bench: Mapping[str, Any]) -> Path:
    """Write a BENCH_core document as deterministic, diffable JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load a BENCH_core (or baseline) document, validating the schema tag."""
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "scenarios" not in data:
        raise ValueError(f"{path}: not a BENCH_core document (no 'scenarios' key)")
    return data


def validate_bench(bench: Mapping[str, Any]) -> list[str]:
    """Structural self-check of a bench document; returns problem strings.

    Used by the test suite and ``--check-regression`` to refuse nonsense
    measurements (non-positive wall times, unregistered scenario names).
    """
    problems = []
    if bench.get("schema") != SCHEMA:
        problems.append(f"schema is {bench.get('schema')!r}, expected {SCHEMA!r}")
    scenarios = bench.get("scenarios")
    if not isinstance(scenarios, Mapping) or not scenarios:
        return problems + ["no scenarios section"]
    for name, entry in scenarios.items():
        if name not in SCENARIOS:
            problems.append(f"unknown scenario {name!r}")
            continue
        runs = entry.get("runs_s")
        if not isinstance(runs, Sequence) or not runs:
            problems.append(f"{name}: missing runs_s")
            continue
        if any(r <= 0 for r in runs) or entry.get("wall_s", 0) <= 0:
            problems.append(f"{name}: non-positive wall time")
        if abs(entry.get("wall_s", 0) - min(runs)) > 1e-12:
            problems.append(f"{name}: wall_s is not min(runs_s)")
        if entry.get("events", 0) <= 0:
            problems.append(f"{name}: non-positive event count")
    return problems
