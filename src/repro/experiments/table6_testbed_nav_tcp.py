"""Table VI (testbed): NAV inflated on the RTS frames of TCP ACKs.

Simulated equivalent of the MadWifi experiment: 802.11a at 6 Mbps, RTS/CTS
on, the greedy receiver inflating its TCP-ACK RTS NAV to the 32767 us
protocol maximum.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Table VI",
        description=(
            "TCP goodput (Mbps) when GR inflates NAV of RTS for TCP ACKs to "
            "the maximum (802.11a testbed emulation); R1 is greedy"
        ),
        columns=["case", "goodput_R1", "goodput_R2"],
    )
    for case, greedy in (("no GR", False), ("1 GR", True)):
        med = median_over_seeds(
            seed_job(
                builders.testbed_pairs,
                duration_s=settings.duration_s,
                transport="tcp",
                inflate_frames=("RTS",) if greedy else (),
            ),
            settings.seeds,
        )
        result.add_row(case=case, goodput_R1=med["R1"], goodput_R2=med["R2"])
    return result
