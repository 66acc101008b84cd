"""Table V: fake ACKs under inherent (non-collision) wireless losses.

With losses that backoff cannot avoid, exponential backoff only wastes
airtime: faking ACKs *improves* goodput — for one greedy receiver massively
at its victim's expense, and for two greedy receivers modestly for both
(the paper's 2-12 % "useful surviving technique" observation).
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_FERS = (0.2, 0.5, 0.8)
QUICK_FERS = (0.5,)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    fers = QUICK_FERS if settings.is_quick else FULL_FERS
    result = ExperimentResult(
        name="Table V",
        description=(
            "Goodput (Mbps) of two UDP flows under inherent wireless losses "
            "and 0/1/2 fake-ACK receivers (802.11b); R2 is the single GR"
        ),
        columns=["data_fer", "case", "goodput_R1", "goodput_R2"],
    )
    for fer in fers:
        for case, flags in (
            ("no GR", (False, False)),
            ("1 GR", (False, True)),
            ("2 GRs", (True, True)),
        ):
            med = median_over_seeds(
                seed_job(
                    builders.fake_inherent_loss,
                    duration_s=settings.duration_s,
                    data_fer=fer,
                    greedy_flags=flags,
                ),
                settings.seeds,
            )
            result.add_row(
                data_fer=fer,
                case=case,
                goodput_R1=med["goodput_R0"],
                goodput_R2=med["goodput_R1"],
            )
    return result
