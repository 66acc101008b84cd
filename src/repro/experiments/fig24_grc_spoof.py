"""Figure 24: GRC detects and recovers from ACK spoofing across loss rates.

With GRC (RSSI-vetted ACKs; provably-safe ones ignored so the MAC
retransmits), both flows track the no-greedy-receiver goodput curves.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_BERS = (0.0, 1e-4, 2e-4, 4.4e-4, 8e-4, 14e-4)
QUICK_BERS = (2e-4, 8e-4)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    bers = QUICK_BERS if settings.is_quick else FULL_BERS
    result = ExperimentResult(
        name="Figure 24",
        description=(
            "Goodput of two TCP flows vs loss rate under no GR / GR without "
            "GRC / GR with GRC (802.11b); R1 spoofs for R0"
        ),
        columns=["ber", "case", "goodput_NR", "goodput_GR", "detections"],
    )
    cases = (
        ("no GR", 0.0, False),
        ("GR, no GRC", 100.0, False),
        ("GR + GRC", 100.0, True),
    )
    for ber in bers:
        for case, gp, grc in cases:
            med = median_over_seeds(
                seed_job(
                    builders.spoof_tcp_pairs,
                    duration_s=settings.duration_s,
                    ber=ber,
                    spoof_percentage=gp,
                    grc=grc,
                ),
                settings.seeds,
            )
            result.add_row(
                ber=ber,
                case=case,
                goodput_NR=med["goodput_R0"],
                goodput_GR=med["goodput_R1"],
                detections=med["detections"],
            )
    return result
