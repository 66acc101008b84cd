"""Figure 16: remote senders — greedy percentage sweep per wireline latency.

The paper's observation: around 200 ms, spoofing only 20 % of sniffed DATA
frames already buys the greedy receiver a large relative gain.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

FULL_GP = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)
QUICK_GP = (0.0, 20.0, 100.0)
FULL_DELAYS_MS = (2, 50, 100, 200, 400)
QUICK_DELAYS_MS = (200,)
BER = 2e-5


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    gps = QUICK_GP if settings.is_quick else FULL_GP
    delays = QUICK_DELAYS_MS if settings.is_quick else FULL_DELAYS_MS
    duration_s = 8.0 if settings.is_quick else 20.0  # cover many long round trips
    result = ExperimentResult(
        name="Figure 16",
        description=(
            "Remote TCP senders: goodput vs greedy (spoofing) percentage for "
            "several wireline latencies; wireless BER=2e-5 (802.11b)"
        ),
        columns=["wired_delay_ms", "greedy_percentage", "goodput_NR", "goodput_GR"],
    )
    for delay_ms in delays:
        for gp in gps:
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
                greedy_percentage=gp,
                goodput_NR=med["goodput_NR"],
                goodput_GR=med["goodput_GR"],
            )
    return result
