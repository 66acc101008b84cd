"""Figure 14: one ACK-spoofing receiver against a growing crowd of normal
receivers, under one shared AP vs one AP per flow.

Head-of-line blocking at a shared AP shrinks the spoofer's edge.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

BER = 2e-4
FULL_PAIRS = (2, 4, 6, 8)
QUICK_PAIRS = (2, 4)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    pair_counts = QUICK_PAIRS if settings.is_quick else FULL_PAIRS
    result = ExperimentResult(
        name="Figure 14",
        description=(
            "One ACK-spoofing receiver vs a varying number of normal "
            "receivers (TCP, BER=2e-4, 802.11b); goodput_NR_mean averages "
            "the normal receivers"
        ),
        columns=["topology", "n_pairs", "goodput_NR_mean", "goodput_GR"],
    )
    for topology, shared in (("one AP", True), ("per-flow APs", False)):
        for n_pairs in pair_counts:
            med = median_over_seeds(
                seed_job(
                    builders.spoof_tcp_pairs,
                    duration_s=settings.duration_s,
                    ber=BER,
                    n_pairs=n_pairs,
                    shared_ap=shared,
                ),
                settings.seeds,
            )
            normals = [med[f"goodput_R{i}"] for i in range(n_pairs - 1)]
            result.add_row(
                topology=topology,
                n_pairs=n_pairs,
                goodput_NR_mean=sum(normals) / len(normals),
                goodput_GR=med[f"goodput_R{n_pairs - 1}"],
            )
    return result
