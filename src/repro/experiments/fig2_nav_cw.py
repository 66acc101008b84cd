"""Figure 2: average contention window of GS and NS vs CTS NAV inflation.

As the greedy receiver's NAV inflation grows, its own sender GS keeps CW near
CW_min while NS's average CW climbs — NS's rare transmissions increasingly
collide with GS's head-started ones — until NS stops sending altogether and
its CW reading collapses back to CW_min (the fluctuation the paper notes
beyond 28 slots).
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

FULL_SLOTS = (0, 2, 5, 8, 10, 12, 15, 18, 20, 22, 25, 28, 31)
QUICK_SLOTS = (0, 10, 20, 28)

SLOT_US = 20.0  # 802.11b slot time


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    slots = QUICK_SLOTS if settings.is_quick else FULL_SLOTS
    result = ExperimentResult(
        name="Figure 2",
        description=(
            "Average CW of GS and NS under two competing UDP flows while GR "
            "inflates CTS/ACK NAV by v slots (802.11b)"
        ),
        columns=["v_slots", "cw_NS", "cw_GS"],
    )
    for v in slots:
        med = median_over_seeds(
            seed_job(
                builders.nav_pairs,
                duration_s=settings.duration_s,
                transport="udp",
                nav_inflation_us=v * SLOT_US,
                inflate_frames=(FrameKind.CTS, FrameKind.ACK),
            ),
            settings.seeds,
        )
        result.add_row(v_slots=v, cw_NS=med["cw_S0"], cw_GS=med["cw_S1"])
    return result
