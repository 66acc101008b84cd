"""Ablation: detector threshold sensitivity.

The paper picks 1 dB for the RSSI spoof detector (Figure 22).  This ablation
verifies the operating point inside the full pipeline: a too-loose threshold
stops flagging spoofed ACKs and the victim's goodput collapses again.
"""

from repro.campaign.builders import spoof_tcp_pairs


def run_with_threshold(threshold_db, seed=1, duration=2.5):
    return spoof_tcp_pairs(
        seed,
        duration,
        ber=2e-4,
        spoof_percentage=100.0,
        grc=True,
        grc_threshold_db=threshold_db,
    )


def test_ablation_rssi_threshold(benchmark):
    tight = benchmark.pedantic(
        lambda: run_with_threshold(1.0), rounds=1, iterations=1
    )
    loose = run_with_threshold(50.0)  # effectively disables detection
    # At 1 dB the detector flags spoofed ACKs and protects the victim.
    assert tight["detections"] > 0
    assert loose["detections"] == 0
    assert tight["goodput_R0"] > 1.5 * max(loose["goodput_R0"], 1e-3)
