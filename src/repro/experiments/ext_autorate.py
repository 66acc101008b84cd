"""Extension: rate adaptation vs greedy receivers (the paper's Section IX).

The paper's conclusion predicts — but does not measure — two interactions:

1. **Fake ACKs backfire under auto-rate**: the faked success feedback drives
   ARF up to modulations the channel cannot carry, so the greedy receiver's
   own goodput drops compared with a fixed well-chosen rate.
2. **ACK spoofing gets worse under auto-rate**: spoofed ACKs pin the
   victim's sender at a rate the victim cannot receive, so the sender never
   falls back and the victim's effective loss rate compounds.

We measure both on a channel whose per-rate BER profile makes 11 Mbps lossy
and 2 Mbps clean (the regime where rate adaptation matters).
"""

from __future__ import annotations

from repro.core.greedy import GreedyConfig
from repro.experiments.common import RunSettings, experiment_api, US_PER_S, seed_job
from repro.net.scenario import Scenario
from repro.stats import ExperimentResult, median_over_seeds

#: Per-rate BER profile of a mid-quality link: clean at low rates, marginal
#: at 5.5 Mbps, bad at 11 Mbps.  (Error-model BERs are per byte-unit.)
MARGINAL_LINK = {1.0: 0.0, 2.0: 1e-5, 5.5: 2e-4, 11.0: 1.5e-3}


def _apply_profile(s: Scenario, src: str, dst: str) -> None:
    s.error_model.set_rate_profile(src, dst, MARGINAL_LINK)


def fake_ack_autorate(
    seed: int, duration_s: float, greedy: bool, autorate: bool
) -> dict[str, float]:
    """Two pairs on marginal links; R1 fakes ACKs (or not); senders fixed at
    2 Mbps or running ARF."""
    from repro.phy.params import dot11b

    # Fixed-rate runs transmit at the best sustainable rate for this profile.
    phy = dot11b() if autorate else dot11b(2.0)
    s = Scenario(phy=phy, seed=seed, rts_enabled=False)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node("R1", greedy=GreedyConfig.ack_faker() if greedy else None)
    _apply_profile(s, "S0", "R0")
    _apply_profile(s, "S1", "R1")
    if autorate:
        s.enable_autorate(["S0", "S1"])
    f0, k0 = s.udp_flow("S0", "R0")
    f1, k1 = s.udp_flow("S1", "R1")
    f0.start()
    f1.start()
    s.run(duration_s)
    us = duration_s * US_PER_S
    out = {
        "goodput_R0": k0.goodput_mbps(us),
        "goodput_R1": k1.goodput_mbps(us),
    }
    if autorate:
        controller = s.macs["S1"].rate_controller
        out["gs_rate_final"] = controller.rate_for("R1")
    else:
        out["gs_rate_final"] = 2.0
    return out


def spoof_autorate(
    seed: int, duration_s: float, spoof: bool, autorate: bool
) -> dict[str, float]:
    """Spoofing under ARF: the victim's sender keeps hearing (spoofed) ACKs
    at high rates, so it never falls back to a rate the victim can decode."""
    from repro.phy.params import dot11b

    phy = dot11b() if autorate else dot11b(2.0)
    s = Scenario(phy=phy, seed=seed)
    s.add_wireless_node("NS", position=(0.0, 0.0))
    s.add_wireless_node("GS", position=(60.0, 60.0))
    s.add_wireless_node("NR", position=(10.0, 0.0))
    s.add_wireless_node(
        "GR",
        position=(48.0, 20.0),
        greedy=GreedyConfig.ack_spoofer(victims={"NR"}) if spoof else None,
    )
    for src, dst in (("NS", "NR"), ("GS", "GR")):
        _apply_profile(s, src, dst)
    # The spoofer overhears NS's data on its own (clean) path.
    if autorate:
        s.enable_autorate(["NS", "GS"])
    snd0, rcv0 = s.tcp_flow("NS", "NR")
    snd1, rcv1 = s.tcp_flow("GS", "GR")
    snd0.start()
    snd1.start()
    s.run(duration_s)
    us = duration_s * US_PER_S
    out = {
        "goodput_NR": rcv0.goodput_mbps(us),
        "goodput_GR": rcv1.goodput_mbps(us),
    }
    if autorate:
        out["ns_rate_final"] = s.macs["NS"].rate_controller.rate_for("NR")
    else:
        out["ns_rate_final"] = 2.0
    return out


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    duration = max(settings.duration_s, 3.0)
    result = ExperimentResult(
        name="Extension: auto-rate",
        description=(
            "Interactions between ARF rate adaptation and the misbehaviors, "
            "as predicted in the paper's conclusion: fake ACKs backfire "
            "under auto-rate; ACK spoofing hits the victim harder"
        ),
        columns=["scenario", "case", "goodput_NR", "goodput_GR", "rate_final"],
    )
    fake_cases = (
        ("fixed 2Mbps, honest", False, False),
        ("fixed 2Mbps, fake ACKs", True, False),
        ("ARF, honest", False, True),
        ("ARF, fake ACKs", True, True),
    )
    for case, greedy, autorate in fake_cases:
        med = median_over_seeds(
            seed_job(
                fake_ack_autorate,
                duration_s=duration,
                greedy=greedy,
                autorate=autorate,
            ),
            settings.seeds,
        )
        result.add_row(
            scenario="fake-ack",
            case=case,
            goodput_NR=med["goodput_R0"],
            goodput_GR=med["goodput_R1"],
            rate_final=med["gs_rate_final"],
        )
    spoof_cases = (
        ("fixed 2Mbps, honest", False, False),
        ("fixed 2Mbps, spoofing", True, False),
        ("ARF, honest", False, True),
        ("ARF, spoofing", True, True),
    )
    for case, spoof, autorate in spoof_cases:
        med = median_over_seeds(
            seed_job(
                spoof_autorate,
                duration_s=duration,
                spoof=spoof,
                autorate=autorate,
            ),
            settings.seeds,
        )
        result.add_row(
            scenario="spoof",
            case=case,
            goodput_NR=med["goodput_NR"],
            goodput_GR=med["goodput_GR"],
            rate_final=med["ns_rate_final"],
        )
    return result
