"""Figure 23: GRC detects and mitigates inflated CTS NAV over distance.

Topology per the paper: communication range 55 m, interference range 99 m;
the greedy pair sits a varying distance from the normal pair.  Close in, the
validators heard the soliciting RTS and clamp the CTS NAV exactly; in the
outer band they fall back to the 1500-byte MTU bound, leaving the greedy
receiver a bounded residual edge; out of range the inflation never mattered.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_DISTANCES = (10, 20, 30, 40, 45, 50, 55, 60, 70, 90, 110)
QUICK_DISTANCES = (20, 50, 70)
NAV_US = 31_000.0


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    distances = QUICK_DISTANCES if settings.is_quick else FULL_DISTANCES
    result = ExperimentResult(
        name="Figure 23",
        description=(
            "Goodput of the normal pair (R1) and greedy pair (R2) vs the "
            "distance between pairs, under no GR / GR without GRC / GR with "
            "GRC; comm range 55 m, interference range 99 m"
        ),
        columns=[
            "transport",
            "distance_m",
            "case",
            "goodput_R1",
            "goodput_R2",
            "nav_detections",
        ],
    )
    transports = ("udp",) if settings.is_quick else ("udp", "tcp")
    cases = (
        ("no GR", 0.0, False),
        ("GR, no GRC", NAV_US, False),
        ("GR + GRC", NAV_US, True),
    )
    for transport in transports:
        for case, nav_us, grc in cases:
            for d in distances:
                med = median_over_seeds(
                    seed_job(
                        builders.grc_nav_distance,
                        duration_s=settings.duration_s,
                        pair_distance_m=float(d),
                        transport=transport,
                        grc=grc,
                        nav_inflation_us=nav_us,
                    ),
                    settings.seeds,
                )
                result.add_row(
                    transport=transport,
                    distance_m=d,
                    case=case,
                    goodput_R1=med["goodput_R1"],
                    goodput_R2=med["goodput_R2"],
                    nav_detections=med["nav_detections"],
                )
    return result
