"""Figure 17: ACK spoofing against UDP traffic (one AP, two receivers).

Spoofing disables MAC retransmissions toward the normal receiver, cutting the
service time its flow gets from the shared AP; the effect is milder than
under TCP because no congestion control amplifies the losses.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_BERS = (0.0, 1e-4, 2e-4, 4.4e-4, 8e-4, 14e-4)
QUICK_BERS = (0.0, 4.4e-4)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    bers = QUICK_BERS if settings.is_quick else FULL_BERS
    result = ExperimentResult(
        name="Figure 17",
        description=(
            "Goodput of two UDP flows S-NR and S-GR from one AP while GR "
            "spoofs ACKs on behalf of NR, vs wireless loss rate (802.11b)"
        ),
        columns=["ber", "case", "goodput_NR", "goodput_GR"],
    )
    for ber in bers:
        for case, greedy in (("no GR", False), ("w R2 GR", True)):
            med = median_over_seeds(
                seed_job(
                    builders.spoof_udp_shared_ap,
                    duration_s=settings.duration_s,
                    ber=ber,
                    greedy=greedy,
                ),
                settings.seeds,
            )
            result.add_row(
                ber=ber,
                case=case,
                goodput_NR=med["goodput_NR"],
                goodput_GR=med["goodput_GR"],
            )
    return result
