"""Figure 7: greedy percentage sweep under TCP NAV inflation.

A stealthy greedy receiver that only manipulates a fraction GP of its CTS
frames still gains substantially — at GP 50 % with 10 ms inflation its lead
is already ~2 Mbps.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

FULL_GP = (0.0, 12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5, 100.0)
QUICK_GP = (0.0, 50.0, 100.0)
NAV_MS = (5.0, 10.0, 31.0)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    gps = QUICK_GP if settings.is_quick else FULL_GP
    nav_values = (10.0, 31.0) if settings.is_quick else NAV_MS
    result = ExperimentResult(
        name="Figure 7",
        description=(
            "Goodput of two TCP flows while GR inflates CTS NAV by 5/10/31 ms "
            "on a fraction GP of its CTS frames (802.11b)"
        ),
        columns=["nav_inflation_ms", "greedy_percentage", "goodput_NR", "goodput_GR"],
    )
    for nav_ms in nav_values:
        for gp in gps:
            med = median_over_seeds(
                seed_job(
                    builders.nav_pairs,
                    duration_s=settings.duration_s,
                    transport="tcp",
                    nav_inflation_us=nav_ms * 1000.0,
                    inflate_frames=(FrameKind.CTS,),
                    greedy_percentage=gp,
                ),
                settings.seeds,
            )
            result.add_row(
                nav_inflation_ms=nav_ms,
                greedy_percentage=gp,
                goodput_NR=med["goodput_R0"],
                goodput_GR=med["goodput_R1"],
            )
    return result
