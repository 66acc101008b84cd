"""Figure 13: ACK spoofing under 0, 1 or 2 greedy receivers (BER 2e-4).

With both receivers spoofing each other's ACKs, MAC retransmission is
disabled for everyone: every wireless loss reaches TCP and total goodput
drops below the honest baseline.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

BER = 2e-4
FULL_GP = (50.0, 100.0)
QUICK_GP = (100.0,)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    gps = QUICK_GP if settings.is_quick else FULL_GP
    result = ExperimentResult(
        name="Figure 13",
        description=(
            "Goodput of two TCP flows under 0/1/2 ACK-spoofing receivers "
            "(BER=2e-4, 802.11b)"
        ),
        columns=["greedy_percentage", "n_greedy", "goodput_R0", "goodput_R1", "total"],
    )
    for gp in gps:
        for n_greedy in (0, 1, 2):
            med = median_over_seeds(
                seed_job(
                    builders.spoof_tcp_pairs,
                    duration_s=settings.duration_s,
                    ber=BER,
                    spoof_percentage=gp if n_greedy else 0.0,
                    n_greedy=max(n_greedy, 1),
                ),
                settings.seeds,
            )
            result.add_row(
                greedy_percentage=gp,
                n_greedy=n_greedy,
                goodput_R0=med["goodput_R0"],
                goodput_R1=med["goodput_R1"],
                total=med["goodput_R0"] + med["goodput_R1"],
            )
    return result
