"""Ablation: EIFS deferral in the fake-ACK scenario.

After receiving a corrupted frame, 802.11 stations defer by EIFS instead of
DIFS.  The fake-ACK dynamics of Figure 18 combine backoff suppression with
these deferral rules; this ablation quantifies how much of the honest
sender's disadvantage comes from backoff alone (EIFS off) versus backoff
plus EIFS (standard).
"""

from repro.core.greedy import GreedyConfig
from repro.net.scenario import Scenario

US = 1_000_000.0


def run_fake(eifs_enabled: bool, seed: int = 1, duration: float = 2.0):
    s = Scenario(seed=seed, rts_enabled=False)
    for name in ("S1", "S2"):
        s.add_wireless_node(name, eifs_enabled=eifs_enabled)
    s.add_wireless_node("R1", eifs_enabled=eifs_enabled)
    s.add_wireless_node(
        "R2", greedy=GreedyConfig.ack_faker(), eifs_enabled=eifs_enabled
    )
    s.error_model.set_data_fer("S1", "R1", 0.5)
    s.error_model.set_data_fer("S2", "R2", 0.5)
    f1, k1 = s.udp_flow("S1", "R1")
    f2, k2 = s.udp_flow("S2", "R2")
    f1.start()
    f2.start()
    s.run(duration)
    return {
        "goodput_R1": k1.goodput_mbps(duration * US),
        "goodput_R2": k2.goodput_mbps(duration * US),
    }


def test_ablation_eifs(benchmark):
    standard = benchmark.pedantic(
        lambda: run_fake(eifs_enabled=True), rounds=1, iterations=1
    )
    no_eifs = run_fake(eifs_enabled=False)
    # The greedy receiver wins in both configurations: backoff suppression is
    # the dominant mechanism, EIFS only modulates it.
    assert standard["goodput_R2"] > standard["goodput_R1"]
    assert no_eifs["goodput_R2"] > no_eifs["goodput_R1"]
    # Totals stay in the same ballpark (EIFS is a second-order effect here).
    total_standard = standard["goodput_R1"] + standard["goodput_R2"]
    total_no_eifs = no_eifs["goodput_R1"] + no_eifs["goodput_R2"]
    assert 0.5 < total_standard / total_no_eifs < 2.0
