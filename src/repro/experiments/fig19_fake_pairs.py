"""Figure 19: one fake-ACK receiver vs a growing number of normal pairs.

Per-flow goodput shrinks with more pairs, so the greedy receiver's absolute
lead shrinks too — but its relative advantage persists, and grows with the
loss rate (more corrupted frames means more fake-ACK opportunities).
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_PAIRS = (2, 4, 6, 8)
QUICK_PAIRS = (2, 4)
FULL_BERS = (2e-4, 5e-4)
QUICK_BERS = (5e-4,)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    pair_counts = QUICK_PAIRS if settings.is_quick else FULL_PAIRS
    bers = QUICK_BERS if settings.is_quick else FULL_BERS
    result = ExperimentResult(
        name="Figure 19",
        description=(
            "One fake-ACK receiver (the last pair) vs a varying number of "
            "normal sender-receiver pairs, per-pair APs, random BER losses "
            "(UDP, 802.11b); goodput_NR_mean averages the normal receivers"
        ),
        columns=["ber", "n_pairs", "goodput_NR_mean", "goodput_GR", "relative_gain"],
    )
    for ber in bers:
        for n_pairs in pair_counts:
            flags = [False] * (n_pairs - 1) + [True]
            med = median_over_seeds(
                seed_job(
                    builders.fake_inherent_loss,
                    duration_s=settings.duration_s,
                    data_fer=0.0,
                    greedy_flags=flags,
                    ber=ber,
                ),
                settings.seeds,
            )
            normals = [med[f"goodput_R{i}"] for i in range(n_pairs - 1)]
            nr_mean = sum(normals) / len(normals)
            gr = med[f"goodput_R{n_pairs - 1}"]
            result.add_row(
                ber=ber,
                n_pairs=n_pairs,
                goodput_NR_mean=nr_mean,
                goodput_GR=gr,
                relative_gain=(gr / nr_mean if nr_mean > 0 else float("inf")),
            )
    return result
