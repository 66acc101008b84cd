"""Attack-zoo bench: the streaming RTS-flood detector's ROC bends.

* Low thresholds always catch the flooder but also flag honest retries.
* Threshold 8, the full table's clean point: flooder caught, no honest
  sender flagged.
* High thresholds (above the ~10 flood RTS per window) miss entirely.
"""

from conftest import rows_by, run_experiment


def test_ext_rts_roc(benchmark):
    result = run_experiment(benchmark, "ext_rts_roc")
    rows = rows_by(result, "threshold")

    low, mid, high = rows[(1.0,)], rows[(8.0,)], rows[(16.0,)]
    # The flooder is flagged below the per-window flood count, missed above.
    assert low["true_positive"] == 1.0
    assert mid["true_positive"] == 1.0
    assert high["true_positive"] == 0.0
    assert high["detections"] == 0.0
    # Honest RTS retries trip low thresholds, never the clean point.
    assert low["false_positive"] >= mid["false_positive"]
    assert mid["false_positive"] == 0.0
    # Detection rates fall monotonically as the threshold rises.
    assert low["detections"] >= mid["detections"] >= high["detections"]
