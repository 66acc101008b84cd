"""Extension: ROC curve of the streaming RTS-flood detector.

The first attack-zoo entry pairs an attack with its detector and asks the
Figure 22 question of the pair: where does the detection threshold sit on
the true-positive/false-positive trade-off?  The attack is the RTS flood
(:class:`repro.faults.plan.RtsFloodConfig` — large-NAV RTS frames to an
absent receiver, the sender-side dual of the paper's NAV inflation); the
detector is :class:`~repro.core.detection.streaming.StreamingRtsFloodDetector`
(excess of unanswered RTS per sender in a sliding window), run **live**
through a :class:`~repro.core.detection.streaming.DetectionTap` while the
scenario simulates.

Each threshold is evaluated on two run families per seed:

* ``flood=True`` — honest contention plus the flooder.  The true-positive
  axis is whether the flooder gets flagged.
* ``flood=False`` — honest contention only.  Honest senders retry RTS when
  CTS responses are lost, so low thresholds flag them during collision
  bursts; the false-positive axis is the fraction of honest senders
  flagged.

The flood period is chosen so the window holds ~10 flood RTS: thresholds
below that detect, thresholds above miss, and the sweep actually bends —
mirroring Figure 22's shape rather than saturating at (1, 0).
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api
from repro.stats import ExperimentResult

#: Detection-threshold sweep (excess unanswered RTS per window).  The quick
#: variant keeps every other point; both include the regime boundaries.
THRESHOLDS = (1, 2, 4, 8, 16, 32)


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """True/false positive rates of the flood detector vs its threshold."""
    thresholds = THRESHOLDS[::2] if settings.is_quick else THRESHOLDS
    result = ExperimentResult(
        name="Extension: RTS-flood detector ROC",
        description=(
            "True-positive rate (flooder flagged) and false-positive rate "
            "(honest senders flagged on clean runs) of the streaming "
            "unanswered-RTS detector vs its window threshold"
        ),
        columns=[
            "threshold",
            "true_positive",
            "false_positive",
            "detections",
            "goodput_flooded",
        ],
    )
    for threshold in thresholds:
        flooded = [
            builders.rts_flood_roc(
                seed, settings.duration_s, threshold=threshold, flood=True
            )
            for seed in settings.seeds
        ]
        clean = [
            builders.rts_flood_roc(
                seed, settings.duration_s, threshold=threshold, flood=False
            )
            for seed in settings.seeds
        ]
        n = len(settings.seeds)
        result.add_row(
            threshold=float(threshold),
            true_positive=sum(r["flooder_flagged"] for r in flooded) / n,
            false_positive=sum(r["honest_flagged"] for r in clean)
            / (n * builders.RTS_FLOOD_PAIRS),
            detections=sum(r["detections"] for r in flooded) / n,
            goodput_flooded=sum(r["goodput_total"] for r in flooded) / n,
        )
    return result
