"""Figure 12: ACK spoofing with varying greedy percentage and loss rate."""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_GP = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)
QUICK_GP = (0.0, 50.0, 100.0)
FULL_BERS = (2e-5, 2e-4, 8e-4)
QUICK_BERS = (2e-4,)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    gps = QUICK_GP if settings.is_quick else FULL_GP
    bers = QUICK_BERS if settings.is_quick else FULL_BERS
    result = ExperimentResult(
        name="Figure 12",
        description=(
            "Goodput of two TCP flows NS-NR and GS-GR while the greedy "
            "percentage of ACK spoofing and the loss rate vary (802.11b)"
        ),
        columns=["ber", "greedy_percentage", "goodput_NR", "goodput_GR"],
    )
    for ber in bers:
        for gp in gps:
            med = median_over_seeds(
                seed_job(
                    builders.spoof_tcp_pairs,
                    duration_s=settings.duration_s,
                    ber=ber,
                    spoof_percentage=gp,
                ),
                settings.seeds,
            )
            result.add_row(
                ber=ber,
                greedy_percentage=gp,
                goodput_NR=med["goodput_R0"],
                goodput_GR=med["goodput_R1"],
            )
    return result
