"""Figure 9: varying the number of greedy receivers among 8 TCP flows.

All greedy receivers inflate CTS NAV by 31 ms at GP 100 %.  The paper's
finding: with more than one greedy receiver, only one of them survives —
31 ms is enough for the first grabber to reserve the medium indefinitely.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.stats import ExperimentResult, median_over_seeds

N_PAIRS = 8
FULL_N_GREEDY = (0, 1, 2, 4, 8)
QUICK_N_GREEDY = (1, 4)
NAV_US = 31_000.0


def seed_run(seed: int, duration_s: float, n_greedy: int) -> dict[str, float]:
    """One seeded point, ranked per-seed so the single survivor stays
    visible (module-level so the parallel engine can address it)."""
    out = builders.nav_pairs(
        seed,
        duration_s,
        transport="tcp",
        nav_inflation_us=NAV_US if n_greedy else 0.0,
        inflate_frames=(FrameKind.CTS,),
        n_pairs=N_PAIRS,
        n_greedy=max(n_greedy, 1),
    )
    ranked = sorted((out[f"goodput_R{i}"] for i in range(N_PAIRS)), reverse=True)
    return {f"rank{i}": ranked[i] for i in range(N_PAIRS)}


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    counts = QUICK_N_GREEDY if settings.is_quick else FULL_N_GREEDY
    columns = ["n_greedy"] + [f"rank{i}" for i in range(N_PAIRS)]
    result = ExperimentResult(
        name="Figure 9",
        description=(
            "Goodput of 8 TCP flows when the last n receivers inflate CTS "
            "NAV by 31 ms at GP=100 (802.11b).  Values are per-seed sorted "
            "(rank0 = best flow): which greedy receiver wins varies by seed, "
            "so medians of raw per-receiver values would hide the single "
            "survivor the paper reports"
        ),
        columns=columns,
    )

    for n_greedy in counts:
        med = median_over_seeds(
            seed_job(seed_run, duration_s=settings.duration_s, n_greedy=n_greedy),
            settings.seeds,
        )
        result.add_row(n_greedy=n_greedy, **med)
    return result
