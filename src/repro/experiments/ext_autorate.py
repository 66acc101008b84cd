"""Extension: rate adaptation vs greedy receivers (the paper's Section IX).

The paper's conclusion predicts — but does not measure — two interactions:

1. **Fake ACKs backfire under auto-rate**: the faked success feedback drives
   ARF up to modulations the channel cannot carry, so the greedy receiver's
   own goodput drops compared with a fixed well-chosen rate.
2. **ACK spoofing gets worse under auto-rate**: spoofed ACKs pin the
   victim's sender at a rate the victim cannot receive, so the sender never
   falls back and the victim's effective loss rate compounds.

We measure both on a channel whose per-rate BER profile makes 11 Mbps lossy
and 2 Mbps clean (the regime where rate adaptation matters): the
``fake_ack_autorate`` and ``spoof_autorate`` families of
:mod:`repro.campaign.builders`.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    duration = max(settings.duration_s, 3.0)
    result = ExperimentResult(
        name="Extension: auto-rate",
        description=(
            "Interactions between ARF rate adaptation and the misbehaviors, "
            "as predicted in the paper's conclusion: fake ACKs backfire "
            "under auto-rate; ACK spoofing hits the victim harder"
        ),
        columns=["scenario", "case", "goodput_NR", "goodput_GR", "rate_final"],
    )
    fake_cases = (
        ("fixed 2Mbps, honest", False, False),
        ("fixed 2Mbps, fake ACKs", True, False),
        ("ARF, honest", False, True),
        ("ARF, fake ACKs", True, True),
    )
    for case, greedy, autorate in fake_cases:
        med = median_over_seeds(
            seed_job(
                builders.fake_ack_autorate,
                duration_s=duration,
                greedy=greedy,
                autorate=autorate,
            ),
            settings.seeds,
        )
        result.add_row(
            scenario="fake-ack",
            case=case,
            goodput_NR=med["goodput_R0"],
            goodput_GR=med["goodput_R1"],
            rate_final=med["gs_rate_final"],
        )
    spoof_cases = (
        ("fixed 2Mbps, honest", False, False),
        ("fixed 2Mbps, spoofing", True, False),
        ("ARF, honest", False, True),
        ("ARF, spoofing", True, True),
    )
    for case, spoof, autorate in spoof_cases:
        med = median_over_seeds(
            seed_job(
                builders.spoof_autorate,
                duration_s=duration,
                spoof=spoof,
                autorate=autorate,
            ),
            settings.seeds,
        )
        result.add_row(
            scenario="spoof",
            case=case,
            goodput_NR=med["goodput_NR"],
            goodput_GR=med["goodput_GR"],
            rate_final=med["ns_rate_final"],
        )
    return result
