"""Figure 18: fake ACKs under hidden-terminal collision losses.

Two APs out of each other's carrier-sense range saturate two receivers
placed between them.  Faking ACKs on collided frames keeps the greedy
sender's contention window at the minimum while the honest sender backs off;
when *both* receivers fake, exponential backoff is gone network-wide and
everyone collides more.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_GP = (0.0, 25.0, 50.0, 75.0, 100.0)
QUICK_GP = (0.0, 100.0)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    gps = QUICK_GP if settings.is_quick else FULL_GP
    result = ExperimentResult(
        name="Figure 18",
        description=(
            "Goodput of two UDP flows with hidden-terminal senders while "
            "receivers fake ACKs on corrupted frames (802.11b, no RTS/CTS)"
        ),
        columns=["case", "greedy_percentage", "goodput_R1", "goodput_R2"],
    )
    for case in ("only R2 greedy", "both greedy"):
        for gp in gps:
            gp_r1 = gp if case == "both greedy" else 0.0
            med = median_over_seeds(
                seed_job(
                    builders.fake_hidden_terminals,
                    duration_s=settings.duration_s,
                    fake_percentages=(gp_r1, gp),
                ),
                settings.seeds,
            )
            result.add_row(
                case=case,
                greedy_percentage=gp,
                goodput_R1=med["goodput_R0"],
                goodput_R2=med["goodput_R1"],
            )
    return result
