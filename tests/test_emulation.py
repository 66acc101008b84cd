"""Tests for the testbed emulation families (Tables VI-IX)."""

import pytest

from repro.campaign import builders
from repro.experiments.table9_testbed_fake import DATA_FER

#: Table VII's variants: (RTS/CTS on, frames whose NAV R1 inflates).
TABLE7_VARIANTS = {
    "ack_no_rtscts": (False, ("ACK",)),
    "cts": (True, ("CTS",)),
    "cts_ack": (True, ("CTS", "ACK")),
}


def table6(greedy, duration_s):
    return builders.testbed_pairs(
        0, duration_s, transport="tcp", inflate_frames=("RTS",) if greedy else ()
    )


def table9(greedy, duration_s, data_fer=DATA_FER):
    return builders.testbed_pairs(
        0, duration_s, rts=False, data_fer=data_fer, clamp_cw=greedy
    )


def test_table6_greedy_starves_victim():
    fair = table6(greedy=False, duration_s=1.5)
    greedy = table6(greedy=True, duration_s=1.5)
    assert 0.4 < fair["R1"] / max(fair["R2"], 1e-9) < 2.5
    assert greedy["R1"] > 5 * max(greedy["R2"], 1e-3)


@pytest.mark.parametrize("variant", list(TABLE7_VARIANTS))
def test_table7_variants(variant):
    rts, frames = TABLE7_VARIANTS[variant]
    greedy = builders.testbed_pairs(0, 1.5, rts=rts, inflate_frames=frames)
    assert greedy["R1"] > 5 * max(greedy["R2"], 1e-3)


def test_table7_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown frame kind 'BOGUS'"):
        builders.testbed_pairs(0, 1.5, inflate_frames=("BOGUS",))


def test_table8_spoof_emulation():
    fair = builders.testbed_shared_sender(0, 2.0, no_retransmit_to_r2=False)
    greedy = builders.testbed_shared_sender(0, 2.0, no_retransmit_to_r2=True)
    assert greedy["R1"] > fair["R1"]  # the greedy flow gains
    assert greedy["R2"] < fair["R2"]  # the victim loses


def test_table9_fake_ack_emulation():
    fair = table9(greedy=False, duration_s=2.0)
    greedy = table9(greedy=True, duration_s=2.0)
    assert greedy["R1"] > fair["R1"]
    assert greedy["R2"] < fair["R2"]


def test_table9_effect_scales_with_loss_rate():
    """The CW clamp only pays when losses trigger backoff, so the greedy
    flow's relative gain must grow with the link loss rate (collisions alone
    provide a small baseline effect)."""

    def relative_gain(data_fer):
        out = table9(greedy=True, duration_s=2.0, data_fer=data_fer)
        return out["R1"] / max(out["R2"], 1e-9)

    assert relative_gain(0.4) > relative_gain(0.0)
