"""Extension: NAV inflation under bursty (Gilbert–Elliott) interference.

The paper evaluates NAV inflation on clean channels (Sections V–VI); its
loss-related results use a *memoryless* error model.  Real interference is
bursty: deep fades corrupt runs of consecutive frames, and every corrupted
reception makes honest stations defer EIFS — time a NAV-inflating greedy
receiver's sender inherits for free.  This experiment asks whether
burstiness amplifies the attack: we fix the *average* frame error rate and
compare a memoryless channel against a bursty one with the same average,
with and without NAV inflation.

The burst model is the :mod:`repro.faults` Gilbert–Elliott channel; its
draws come from a dedicated RNG stream, so the honest/clean rows here are
bit-identical to the pre-fault simulator.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

#: Burst shape: mean fade length 1/p_bad_to_good = 5 frames, mean clean run
#: 1/p_good_to_bad = 45 frames -> stationary P[bad] = 0.1.
P_GOOD_TO_BAD = 1.0 / 45.0
P_BAD_TO_GOOD = 1.0 / 5.0
FER_BAD = 0.8
#: The matched memoryless channel: same average FER on every frame.
AVG_FER = FER_BAD * P_GOOD_TO_BAD / (P_GOOD_TO_BAD + P_BAD_TO_GOOD)

#: The three channel regimes, all sharing the same *average* FER (except the
#: clean baseline): burstiness is the only variable.
CHANNEL_CASES = (
    ("clean", dict()),
    (
        "memoryless",
        dict(p_good_to_bad=0.0, p_bad_to_good=1.0, fer_good=AVG_FER, fer_bad=AVG_FER),
    ),
    (
        "bursty",
        dict(
            p_good_to_bad=P_GOOD_TO_BAD,
            p_bad_to_good=P_BAD_TO_GOOD,
            fer_good=0.0,
            fer_bad=FER_BAD,
        ),
    ),
)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Goodput of the honest (R0) and greedy (R1) pair per channel regime."""
    result = ExperimentResult(
        name="Extension: NAV inflation under bursty interference",
        description=(
            "Honest vs greedy goodput on a clean channel, a memoryless lossy "
            "channel and a Gilbert-Elliott bursty channel with the same "
            "average FER — does burstiness amplify NAV inflation?"
        ),
        columns=[
            "channel",
            "nav_inflation_us",
            "goodput_R0",
            "goodput_R1",
            "corrupted_frames",
        ],
    )
    for channel, kwargs in CHANNEL_CASES:
        for nav_inflation_us in (0.0, 31_000.0):
            med = median_over_seeds(
                seed_job(
                    builders.bursty_nav,
                    duration_s=settings.duration_s,
                    nav_inflation_us=nav_inflation_us,
                    **kwargs,
                ),
                settings.seeds,
            )
            result.add_row(
                channel=channel,
                nav_inflation_us=nav_inflation_us,
                goodput_R0=med["goodput_R0"],
                goodput_R1=med["goodput_R1"],
                corrupted_frames=med["corrupted_frames"],
            )
    return result
