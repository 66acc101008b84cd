"""Figure 6: eight TCP flows, one greedy receiver inflating CTS NAV.

With seven normal competitors it takes a ~10 ms CTS NAV increase for the
greedy receiver to dominate the medium.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median, median_over_seeds

FULL_NAV_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 31.0)
QUICK_NAV_MS = (0.0, 10.0, 31.0)
N_PAIRS = 8


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    nav_values = QUICK_NAV_MS if settings.is_quick else FULL_NAV_MS
    result = ExperimentResult(
        name="Figure 6",
        description=(
            "Goodput of 8 TCP flows when one receiver inflates CTS NAV "
            "(802.11b); normal value is the mean over the 7 normal receivers"
        ),
        columns=["nav_inflation_ms", "goodput_GR", "goodput_NR_mean"],
    )
    for nav_ms in nav_values:
        med = median_over_seeds(
            seed_job(
                builders.nav_pairs,
                duration_s=settings.duration_s,
                transport="tcp",
                nav_inflation_us=nav_ms * 1000.0,
                inflate_frames=(FrameKind.CTS,),
                n_pairs=N_PAIRS,
                n_greedy=1,
            ),
            settings.seeds,
        )
        normal = [med[f"goodput_R{i}"] for i in range(N_PAIRS - 1)]
        result.add_row(
            nav_inflation_ms=nav_ms,
            goodput_GR=med[f"goodput_R{N_PAIRS - 1}"],
            goodput_NR_mean=sum(normal) / len(normal),
        )
    return result
