"""Figure 3: analytic model (Equations 1-2) vs simulated RTS sending ratio.

The paper validates its sending-probability model by plugging the contention
window distributions *measured in simulation* into Equations (1)-(2) and
comparing the predicted RTS sending ratio with the measured one.  We do the
same: one simulation per inflation value yields both the measured ratio and
the CW histograms that feed the model.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_SLOTS = (0, 2, 5, 10, 15, 20, 25, 31)
QUICK_SLOTS = (0, 10, 25)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    slots = QUICK_SLOTS if settings.is_quick else FULL_SLOTS
    result = ExperimentResult(
        name="Figure 3",
        description=(
            "RTS sending ratio GS/(GS+NS) between two competing UDP flows: "
            "simulation vs the Equation (1)-(2) model fed with measured CW "
            "distributions (802.11b)"
        ),
        columns=["v_slots", "measured_gs_share", "model_gs_share", "abs_error"],
    )
    for v in slots:
        med = median_over_seeds(
            seed_job(
                builders.rts_share_model, duration_s=settings.duration_s, v_slots=v
            ),
            settings.seeds,
        )
        measured, predicted = med["measured_gs_share"], med["model_gs_share"]
        result.add_row(
            v_slots=v,
            measured_gs_share=measured,
            model_gs_share=predicted,
            abs_error=abs(measured - predicted),
        )
    return result
