"""Table IX (testbed): fake-ACK emulation under UDP.

Two senders over lossy links; the greedy receiver's sender has
CW_max clamped to CW_min, so losses never escalate its backoff.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

#: The testbed links were naturally lossy; without losses the CW clamp is a
#: no-op (backoff never escalates), so both links get this data frame error
#: rate.
DATA_FER = 0.15


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Table IX",
        description=(
            "UDP goodput (Mbps), testbed emulation of fake ACKs: CW_max "
            "clamped to CW_min for R1's sender (802.11a, no RTS/CTS, lossy "
            "links); R1 plays the greedy receiver"
        ),
        columns=["case", "goodput_GR", "goodput_NR"],
    )
    for case, greedy in (("no GR", False), ("1 GR", True)):
        med = median_over_seeds(
            seed_job(
                builders.testbed_pairs,
                duration_s=settings.duration_s,
                rts=False,
                data_fer=DATA_FER,
                clamp_cw=greedy,
            ),
            settings.seeds,
        )
        result.add_row(case=case, goodput_GR=med["R1"], goodput_NR=med["R2"])
    return result
