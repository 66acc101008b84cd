"""Table VII (testbed): UDP NAV inflation via injected ACK/CTS frames.

Three rows as in the paper: ACK inflation without RTS/CTS, CTS inflation
with RTS/CTS, and both.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

#: (row label, RTS/CTS on, frames whose NAV the greedy receiver inflates).
VARIANTS = (
    ("no RTS/CTS, inflated NAV on ACK", False, ("ACK",)),
    ("with RTS/CTS, inflated NAV on CTS", True, ("CTS",)),
    ("with RTS/CTS, inflated NAV on CTS/ACK", True, ("CTS", "ACK")),
)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Table VII",
        description=(
            "UDP goodput (Mbps) when GR inflates NAV to the maximum "
            "(802.11a testbed emulation); R1 is greedy in the '1 GR' runs"
        ),
        columns=["variant", "case", "goodput_R1", "goodput_R2"],
    )
    for label, rts, frames in VARIANTS:
        for case, greedy in (("no GR", False), ("1 GR", True)):
            med = median_over_seeds(
                seed_job(
                    builders.testbed_pairs,
                    duration_s=settings.duration_s,
                    rts=rts,
                    inflate_frames=frames if greedy else (),
                ),
                settings.seeds,
            )
            result.add_row(
                variant=label, case=case, goodput_R1=med["R1"], goodput_R2=med["R2"]
            )
    return result
