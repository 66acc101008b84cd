"""Table II: average TCP congestion window, one- vs two-sender topologies.

For the same NAV inflation, the gap between the normal and greedy flow's
congestion window is larger when each flow has its own sender; head-of-line
blocking at a shared sender dampens (but does not remove) the effect.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

FULL_NAV_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 31.0)
QUICK_NAV_MS = (0.0, 10.0, 31.0)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    nav_values = QUICK_NAV_MS if settings.is_quick else FULL_NAV_MS
    result = ExperimentResult(
        name="Table II",
        description=(
            "Average TCP congestion window (segments) while GR inflates CTS "
            "NAV: shared-sender (S-NR / S-GR) vs two-sender (NS-NR / GS-GR)"
        ),
        columns=["nav_inflation_ms", "cwnd_S_NR", "cwnd_S_GR", "cwnd_NS_NR", "cwnd_GS_GR"],
    )
    for nav_ms in nav_values:
        shared = median_over_seeds(
            seed_job(
                builders.nav_shared_sender,
                duration_s=settings.duration_s,
                transport="tcp",
                nav_inflation_us=nav_ms * 1000.0,
                inflate_frames=(FrameKind.CTS,),
                n_receivers=2,
            ),
            settings.seeds,
        )
        separate = median_over_seeds(
            seed_job(
                builders.nav_pairs,
                duration_s=settings.duration_s,
                transport="tcp",
                nav_inflation_us=nav_ms * 1000.0,
                inflate_frames=(FrameKind.CTS,),
            ),
            settings.seeds,
        )
        result.add_row(
            nav_inflation_ms=nav_ms,
            cwnd_S_NR=shared["cwnd_R0"],
            cwnd_S_GR=shared["cwnd_R1"],
            cwnd_NS_NR=separate["cwnd_S0"],
            cwnd_GS_GR=separate["cwnd_S1"],
        )
    return result
