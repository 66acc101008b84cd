"""Figure 15: ACK spoofing when the TCP senders sit across a wired path.

Wireline latency makes end-to-end recovery ever more expensive relative to
the suppressed MAC retransmission, so the spoofer's edge first widens with
latency; past ~200 ms its own ACK-clocked goodput decays faster than the
victim's loss buys it.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_DELAYS_MS = (2, 10, 50, 100, 200, 400)
QUICK_DELAYS_MS = (2, 200)
BER = 2e-5


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    delays = QUICK_DELAYS_MS if settings.is_quick else FULL_DELAYS_MS
    # Round trips reach ~0.8 s at the top of the sweep: the run must cover
    # many of them for congestion control to show its steady state.
    duration_s = 8.0 if settings.is_quick else 20.0
    result = ExperimentResult(
        name="Figure 15",
        description=(
            "Goodput under remote TCP senders (one-way wireline latency on "
            "the x-axis); both wireless links have BER=2e-5 (802.11b)"
        ),
        columns=["wired_delay_ms", "case", "goodput_NR", "goodput_GR"],
    )
    for delay_ms in delays:
        for case, gp in (("no GR", 0.0), ("w R2 GR", 100.0)):
            med = median_over_seeds(
                seed_job(
                    builders.remote_tcp,
                    duration_s=duration_s,
                    wired_delay_us=delay_ms * 1000.0,
                    ber=BER,
                    spoof_percentage=gp,
                ),
                settings.seeds,
            )
            result.add_row(
                wired_delay_ms=delay_ms,
                case=case,
                goodput_NR=med["goodput_NR"],
                goodput_GR=med["goodput_GR"],
            )
    return result
