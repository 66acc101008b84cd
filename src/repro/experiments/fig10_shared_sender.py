"""Figure 10: one sender serving both the greedy and the normal receiver.

Head-of-line blocking at the shared sender limits (but does not eliminate)
the greedy receiver's gain under TCP; under UDP with equal CBR rates both
flows simply lose as the inflated NAV stalls the shared queue.

Three sub-experiments: (a) TCP with 2 receivers, (b) TCP with 8 receivers,
(c) UDP with 2 receivers.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

FULL_NAV_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 31.0)
QUICK_NAV_MS = (0.0, 10.0, 31.0)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    nav_values = QUICK_NAV_MS if settings.is_quick else FULL_NAV_MS
    result = ExperimentResult(
        name="Figure 10",
        description=(
            "One sender to multiple receivers, one of which inflates CTS NAV "
            "(802.11b): (a) TCP 2 rx, (b) TCP 8 rx, (c) UDP 2 rx; "
            "goodput_NR is the mean over normal receivers"
        ),
        columns=["subfigure", "nav_inflation_ms", "goodput_NR", "goodput_GR"],
    )
    cases = (
        ("a:tcp-2rx", "tcp", 2),
        ("b:tcp-8rx", "tcp", 8),
        ("c:udp-2rx", "udp", 2),
    )
    for label, transport, n_receivers in cases:
        # The 8-receiver TCP case converges slowly: the greedy receiver's
        # edge only appears once the other flows' congestion windows have
        # collapsed through repeated RTOs, so give it more simulated time.
        duration_s = settings.duration_s if n_receivers == 2 else max(
            settings.duration_s, 8.0
        )
        for nav_ms in nav_values:
            med = median_over_seeds(
                seed_job(
                    builders.nav_shared_sender,
                    duration_s=duration_s,
                    transport=transport,
                    nav_inflation_us=nav_ms * 1000.0,
                    inflate_frames=(FrameKind.CTS,),
                    n_receivers=n_receivers,
                ),
                settings.seeds,
            )
            normals = [med[f"goodput_R{i}"] for i in range(n_receivers - 1)]
            result.add_row(
                subfigure=label,
                nav_inflation_ms=nav_ms,
                goodput_NR=sum(normals) / len(normals),
                goodput_GR=med[f"goodput_R{n_receivers - 1}"],
            )
    return result
