"""Figure 1: goodput of two UDP flows while GR inflates its CTS NAV (802.11b).

The paper's headline result for misbehavior 1: a NAV increase of only 0.6 ms
lets the greedy receiver's flow starve the competing flow completely.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

FULL_ALPHAS = (0, 1, 2, 3, 4, 6, 10, 31, 100, 310)  # NAV += alpha * 100 us
QUICK_ALPHAS = (0, 3, 6, 31, 310)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    alphas = QUICK_ALPHAS if settings.is_quick else FULL_ALPHAS
    result = ExperimentResult(
        name="Figure 1",
        description=(
            "Goodput of two UDP flows NS-NR and GS-GR, where GR inflates CTS "
            "NAV by alpha*100 us (802.11b)"
        ),
        columns=["alpha", "nav_inflation_ms", "goodput_NR", "goodput_GR"],
    )
    for alpha in alphas:
        med = median_over_seeds(
            seed_job(
                builders.nav_pairs,
                duration_s=settings.duration_s,
                transport="udp",
                nav_inflation_us=alpha * 100.0,
                inflate_frames=(FrameKind.CTS,),
            ),
            settings.seeds,
        )
        result.add_row(
            alpha=alpha,
            nav_inflation_ms=alpha * 0.1,
            goodput_NR=med["goodput_R0"],
            goodput_GR=med["goodput_R1"],
        )
    return result
