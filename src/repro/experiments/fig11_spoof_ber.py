"""Figure 11: ACK spoofing under TCP while the wireless loss rate varies.

The greedy receiver spoofs a MAC ACK for every data frame it sniffs toward
the normal receiver (GP=100).  The gain peaks at moderate loss: with little
loss there is nothing to suppress, with heavy loss the spoofer overhears too
few frames and suffers on its own link as well.  Both 802.11b and 802.11a.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.phy.params import dot11a
from repro.stats import ExperimentResult, median_over_seeds

FULL_BERS = (0.0, 1e-5, 1e-4, 2e-4, 3.2e-4, 4.4e-4, 8e-4, 14e-4)
QUICK_BERS = (0.0, 2e-4, 8e-4)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    bers = QUICK_BERS if settings.is_quick else FULL_BERS
    result = ExperimentResult(
        name="Figure 11",
        description=(
            "Goodput of two TCP flows vs wireless loss rate; R1 (GR) spoofs "
            "MAC ACKs on behalf of R0 (NR); 'no GR' runs have no spoofer"
        ),
        columns=["phy", "ber", "case", "goodput_R1_or_NR", "goodput_R2_or_GR"],
    )
    for phy_name, phy in (("802.11b", None), ("802.11a", dot11a(6.0))):
        if settings.is_quick and phy_name == "802.11a":
            continue
        for ber in bers:
            for case, gp in (("no GR", 0.0), ("w R2 GR", 100.0)):
                med = median_over_seeds(
                    seed_job(
                        builders.spoof_tcp_pairs,
                        duration_s=settings.duration_s,
                        ber=ber,
                        phy=phy,
                        spoof_percentage=gp,
                    ),
                    settings.seeds,
                )
                result.add_row(
                    phy=phy_name,
                    ber=ber,
                    case=case,
                    goodput_R1_or_NR=med["goodput_R0"],
                    goodput_R2_or_GR=med["goodput_R1"],
                )
    return result
