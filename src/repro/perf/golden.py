"""Golden-trace and golden-metric capture for core-equivalence testing.

The fast-path work on the simulation core (heap scheduler, timing lookup
tables, batched RNG) promises to be *bit-identical* to the original
implementation.  This module defines what "identical" means operationally:

* **Frame traces** — every transmission of a canonical scenario, serialized
  with :meth:`repro.stats.trace.FrameTracer.to_jsonl`.  The committed files
  under ``tests/golden/`` were captured from the pre-fast-path core; the
  optimized core must reproduce them **byte for byte** (same frames, same
  microsecond timestamps, same NAV values, same order).
* **Campaign metrics** — full grid points of the Figure 1 and Figure 11
  campaigns executed through :func:`repro.campaign.run_campaign`, compared
  for exact float equality per seed.  This closes the loop above the MAC:
  transport behavior, medians, manifest plumbing.

Both captures run the same code path at capture and at verify time, so a
comparison failure always means the simulation itself diverged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.perf.scenarios import get_scenario, scenario_names
from repro.stats.trace import FrameTracer

US_PER_S = 1_000_000.0

#: Scenario -> (seed, simulated seconds) for the committed golden traces.
#: Short enough to keep the JSONL files reviewable, long enough to exercise
#: backoff escalation, NAV expiry, retransmission and (for spoof_tcp)
#: corrupted receptions.
GOLDEN_TRACE_RUNS: dict[str, tuple[int, float]] = {
    "fig1_nav_udp": (1, 0.25),
    "fig8_nav_tcp": (1, 0.25),
    "spoof_tcp": (2, 0.25),
    # GRC detection operating points (added with the streaming-detection
    # gate): dense NAV inflation and ACK spoofing under active detectors.
    "grc_nav": (1, 0.25),
    "grc_spoof": (2, 0.25),
    # SINR channel-model golden set (DESIGN.md §15): these scenarios pin
    # ``ChannelConfig(model="sinr")`` explicitly, so the committed traces
    # cover the aggregate-interference decision path.  The
    # dense grid runs 20 ms — 120 stations make even that ~400 records.
    "hidden_node_sinr": (1, 0.25),
    "dense_hotspot_sinr": (1, 0.02),
}


def trace_filename(name: str) -> str:
    """Committed filename for one golden trace."""
    seed, duration_s = GOLDEN_TRACE_RUNS[name]
    return f"trace_{name}_seed{seed}_{int(duration_s * 1000)}ms.jsonl"


def capture_trace(name: str, out_path: str | Path) -> int:
    """Run one golden scenario with a tracer attached; write JSONL.

    Returns the number of trace records written.
    """
    seed, duration_s = GOLDEN_TRACE_RUNS[name]
    built = get_scenario(name).build(seed)
    tracer = FrameTracer(built.scenario.medium)
    built.scenario.run(duration_s)
    return tracer.to_jsonl(out_path)


def capture_all_traces(out_dir: str | Path) -> dict[str, int]:
    """Capture every golden trace into ``out_dir``; returns record counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: capture_trace(name, out_dir / trace_filename(name))
        for name in GOLDEN_TRACE_RUNS
    }


# --------------------------------------------------- fault golden traces --

#: Fault-enabled golden points: ``key -> (scenario, seed, duration_s)``.
#: Each pins one sim-plane fault model end to end — the model's dedicated
#: RNG stream, its delivery/scheduling hooks *and* the unchanged base
#: machinery around it — so a change cannot be bit-exact on clean channels
#: while silently reordering draws under faults.
GOLDEN_FAULT_RUNS: dict[str, tuple[str, int, float]] = {
    "ge_channel": ("fig1_nav_udp", 3, 0.25),
    "jammer": ("fig8_nav_tcp", 3, 0.25),
}


def fault_plan(key: str):
    """The committed :class:`repro.faults.FaultPlan` for one fault golden.

    Parameters are chosen so the fault actually bites within 250 ms of
    simulated time: the Gilbert–Elliott chain fades several times per trace
    (mean good run 20 frames, bad run ~3 at 80% FER) and the jammer fires a
    2 ms burst every 20 ms starting at 1 ms.
    """
    from repro.faults import FaultPlan, GilbertElliottConfig, JammerConfig

    if key == "ge_channel":
        return FaultPlan(channel=GilbertElliottConfig())
    if key == "jammer":
        return FaultPlan(jammer=JammerConfig())
    raise KeyError(
        f"unknown fault golden {key!r}; known: {sorted(GOLDEN_FAULT_RUNS)}"
    )


def fault_trace_filename(key: str) -> str:
    scenario, seed, duration_s = GOLDEN_FAULT_RUNS[key]
    return f"trace_fault_{key}_{scenario}_seed{seed}_{int(duration_s * 1000)}ms.jsonl"


def capture_fault_trace(key: str, out_path: str | Path) -> int:
    """Run one fault golden point with a tracer attached; write JSONL."""
    scenario, seed, duration_s = GOLDEN_FAULT_RUNS[key]
    built = get_scenario(scenario).build(seed)
    built.scenario.install_faults(fault_plan(key))
    tracer = FrameTracer(built.scenario.medium)
    built.scenario.run(duration_s)
    return tracer.to_jsonl(out_path)


def capture_all_fault_traces(out_dir: str | Path) -> dict[str, int]:
    """Capture every fault golden trace into ``out_dir``; record counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        key: capture_fault_trace(key, out_dir / fault_trace_filename(key))
        for key in GOLDEN_FAULT_RUNS
    }


# ------------------------------------------------- campaign-level metrics --

#: Small-but-real campaign specs for full-figure metric equivalence: two
#: figures, several grid points, two seeds each.  Durations are short; what
#: matters is exact float equality, not statistical convergence.
GOLDEN_CAMPAIGNS: dict[str, dict[str, Any]] = {
    "fig1_nav_udp": {
        "campaign": {
            "name": "golden_fig1",
            "builder": "nav_pairs",
            "seeds": [1, 2],
            "duration_s": 0.4,
        },
        "params": {"transport": "udp"},
        "zip": {
            "alpha": [0, 3, 6],
            "nav_inflation_us": [0.0, 300.0, 600.0],
        },
    },
    "fig11_spoof_ber": {
        "campaign": {
            "name": "golden_fig11",
            "builder": "spoof_tcp_pairs",
            "seeds": [1, 2],
            "duration_s": 0.4,
        },
        "sweep": {"ber": [1e-4, 2e-4]},
    },
}

METRICS_FILENAME = "campaign_metrics.json"


def run_golden_campaigns(work_dir: str | Path) -> dict[str, Any]:
    """Execute the golden campaign specs; return ``{figure: per-point data}``.

    Runs through the real campaign runner (manifest, cache, aggregation) so
    the equivalence check covers the same machinery ``repro campaign`` uses.
    The per-seed metric dicts are returned exactly as the builders produced
    them — full float precision.
    """
    from repro.campaign import run_campaign
    from repro.campaign.runner import load_point_results, manifest_path
    from repro.campaign.manifest import Manifest
    from repro.campaign.spec import spec_from_dict

    work_dir = Path(work_dir)
    out: dict[str, Any] = {}
    for figure, data in GOLDEN_CAMPAIGNS.items():
        spec = spec_from_dict(data, source=f"<golden:{figure}>")
        run_dir = work_dir / figure
        run_campaign(spec, out_dir=run_dir, use_cache=False)
        manifest = Manifest.load(manifest_path(run_dir))
        results = load_point_results(run_dir, manifest)
        out[figure] = {
            point_id: {
                "params": payload["params"],
                "per_seed": payload["per_seed"],
            }
            for point_id, payload in sorted(results.items())
        }
    return out


def capture_metrics(out_path: str | Path, work_dir: str | Path) -> Path:
    """Run the golden campaigns and write their metrics as sorted JSON."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    payload = run_golden_campaigns(work_dir)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_path


def compare_metrics(
    golden: Mapping[str, Any], current: Mapping[str, Any]
) -> list[str]:
    """Exact comparison of two golden-metric documents; returns differences."""
    problems = []
    for figure in sorted(set(golden) | set(current)):
        if figure not in golden or figure not in current:
            problems.append(f"{figure}: present on only one side")
            continue
        g_points, c_points = golden[figure], current[figure]
        for point in sorted(set(g_points) | set(c_points)):
            if point not in g_points or point not in c_points:
                problems.append(f"{figure}/{point}: present on only one side")
                continue
            g_seeds = g_points[point]["per_seed"]
            c_seeds = c_points[point]["per_seed"]
            for seed in sorted(set(g_seeds) | set(c_seeds)):
                g = g_seeds.get(seed)
                c = c_seeds.get(seed)
                if g != c:
                    problems.append(
                        f"{figure}/{point}/seed {seed}: {g!r} != {c!r}"
                    )
    return problems


__all__ = [
    "GOLDEN_CAMPAIGNS",
    "GOLDEN_FAULT_RUNS",
    "GOLDEN_TRACE_RUNS",
    "METRICS_FILENAME",
    "capture_all_fault_traces",
    "capture_all_traces",
    "capture_fault_trace",
    "capture_metrics",
    "capture_trace",
    "compare_metrics",
    "fault_plan",
    "fault_trace_filename",
    "run_golden_campaigns",
    "scenario_names",
    "trace_filename",
]
