"""Figure 8: goodput under 0, 1 or 2 greedy receivers (2 pairs, TCP).

With both receivers greedy, whoever grabs the medium first gets to silence
the other and keep re-grabbing it.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

NAV_MS = (5.0, 10.0, 31.0)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    nav_values = (31.0,) if settings.is_quick else NAV_MS
    result = ExperimentResult(
        name="Figure 8",
        description=(
            "Goodput of two TCP flows under 0/1/2 greedy receivers inflating "
            "CTS NAV by 5/10/31 ms (802.11b); R1 is the (first) greedy one. "
            "goodput_hi/lo are per-seed sorted values: with two greedy "
            "receivers the winner alternates between seeds, so medians of "
            "raw per-receiver values would hide the winner-takes-all outcome"
        ),
        columns=[
            "nav_inflation_ms",
            "n_greedy",
            "goodput_R0",
            "goodput_R1",
            "goodput_hi",
            "goodput_lo",
        ],
    )

    for nav_ms in nav_values:
        for n_greedy in (0, 1, 2):
            med = median_over_seeds(
                seed_job(
                    builders.nav_pairs_sorted,
                    duration_s=settings.duration_s,
                    nav_ms=nav_ms,
                    n_greedy=n_greedy,
                ),
                settings.seeds,
            )
            result.add_row(nav_inflation_ms=nav_ms, n_greedy=n_greedy, **med)
    return result
