"""Extension: hotspot goodput under periodic jamming and station crashes.

Two beyond-paper impairments the greedy-receiver results implicitly assume
away: external interference that everyone must defer to, and stations that
die (and come back) mid-run.  This experiment measures both with the
:mod:`repro.faults` models:

* a periodic jammer whose duty cycle sweeps from silence to a quarter of
  the airtime — every burst freezes honest backoff and triggers EIFS
  deferral, shrinking the pie the DCF shares;
* a crash/reboot of one sender mid-run — its queue is lost, its flow stops
  cold, and the interesting question is whether the *other* pair picks up
  the freed airtime (it should: DCF has no memory of the crashed
  contender).

Everything is seed-deterministic: jam timing and the crash schedule are
pure functions of the plan, and the jammer's jitter draws come from the
dedicated ``faults.jammer`` stream.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Goodput per pair across jammer duty cycles, with and without a crash."""
    result = ExperimentResult(
        name="Extension: jamming and station crashes",
        description=(
            "Per-pair goodput under a periodic jammer (duty-cycle sweep) and "
            "a mid-run crash/reboot of one sender: how much airtime the "
            "surviving pair reclaims, and what jamming costs everyone"
        ),
        columns=[
            "duty_pct",
            "crash",
            "goodput_R0",
            "goodput_R1",
            "jam_bursts",
            "s0_crash_dropped",
        ],
    )
    duties = (0.0, 10.0, 25.0) if not settings.is_quick else (0.0, 25.0)
    for duty_pct in duties:
        for crash in (False, True):
            med = median_over_seeds(
                seed_job(
                    builders.jammer_crash,
                    duration_s=settings.duration_s,
                    duty_pct=duty_pct,
                    crash=crash,
                ),
                settings.seeds,
            )
            result.add_row(
                duty_pct=duty_pct,
                crash=crash,
                goodput_R0=med["goodput_R0"],
                goodput_R1=med["goodput_R1"],
                jam_bursts=med["jam_bursts"],
                s0_crash_dropped=med["s0_crash_dropped"],
            )
    return result
