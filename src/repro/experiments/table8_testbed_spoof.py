"""Table VIII (testbed): ACK-spoofing emulation under TCP.

One sender, two receivers; the sender's MAC retransmissions toward the
victim are disabled (what a perfectly successful spoofer achieves).
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Table VIII",
        description=(
            "TCP goodput (Mbps), testbed emulation of ACK spoofing: MAC "
            "retransmissions disabled toward R2 (the victim); 802.11a, "
            "no RTS/CTS; R1 plays the greedy receiver"
        ),
        columns=["case", "goodput_GR", "goodput_NR"],
    )
    for case, greedy in (("no GR", False), ("1 GR", True)):
        med = median_over_seeds(
            seed_job(
                builders.testbed_shared_sender,
                duration_s=settings.duration_s,
                no_retransmit_to_r2=greedy,
            ),
            settings.seeds,
        )
        result.add_row(case=case, goodput_GR=med["R1"], goodput_NR=med["R2"])
    return result
