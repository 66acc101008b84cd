"""Extension: greedy receiver vs selfish sender, head to head.

The paper motivates receiver-side misbehavior by noting hotspot *clients*
are mostly receivers.  This experiment quantifies the comparison against the
classic sender-side attack (backoff cheating a la Kyasanur-Vaidya): how much
goodput does each attacker capture from the same honest competitor?
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Extension: attack-surface comparison",
        description=(
            "Goodput captured by a greedy receiver (10 ms CTS NAV inflation) "
            "vs a selfish sender (CW bounds at 1/8 of standard) against the "
            "same honest UDP competitor (802.11b)"
        ),
        columns=["attack", "goodput_victim", "goodput_attacker", "attacker_share"],
    )
    for attack in ("none", "selfish-sender", "greedy-receiver"):
        med = median_over_seeds(
            seed_job(
                builders.sender_baseline, duration_s=settings.duration_s, attack=attack
            ),
            settings.seeds,
        )
        result.add_row(attack=attack, **med)
    return result
