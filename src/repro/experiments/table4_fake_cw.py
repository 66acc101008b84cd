"""Table IV: sender contention windows under hidden terminals and fake ACKs.

The paper's table for both PHYs at GP=100 %: with no greedy receiver both
senders hover at large CW; with one faker its sender's CW collapses to near
CW_min while the honest sender's explodes; with two fakers both stay low.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.phy.params import dot11a
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    result = ExperimentResult(
        name="Table IV",
        description=(
            "Average contention window of the two hidden-terminal senders "
            "under 0/1/2 fake-ACK receivers at GP=100 (UDP)"
        ),
        columns=["phy", "case", "cw_S1", "cw_S2"],
    )
    phys = (("802.11b", None),) if settings.is_quick else (("802.11b", None), ("802.11a", dot11a(6.0)))
    for phy_name, phy in phys:
        for case, gps in (
            ("no GR", (0.0, 0.0)),
            ("1 GR", (0.0, 100.0)),
            ("2 GRs", (100.0, 100.0)),
        ):
            med = median_over_seeds(
                seed_job(
                    builders.fake_hidden_terminals,
                    duration_s=settings.duration_s,
                    fake_percentages=gps,
                    phy=phy,
                ),
                settings.seeds,
            )
            result.add_row(
                phy=phy_name, case=case, cw_S1=med["cw_S0"], cw_S2=med["cw_S1"]
            )
    return result
