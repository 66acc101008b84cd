"""Unit tests for the selfish-sender baseline."""

import pytest

from repro.core.baseline import SelfishSenderConfig, make_selfish
from repro.net.scenario import Scenario


def test_config_validation():
    with pytest.raises(ValueError):
        SelfishSenderConfig(cw_factor=0.0)
    with pytest.raises(ValueError):
        SelfishSenderConfig(cw_factor=1.5)


def test_cw_scaling():
    config = SelfishSenderConfig(cw_factor=0.25)
    assert config.cw_min_for(31) == 7
    assert config.cw_max_for(1023) == 255
    # Never collapses below a 1-slot window.
    assert SelfishSenderConfig(cw_factor=0.01).cw_min_for(31) == 1


def test_make_selfish_rewrites_mac_bounds():
    s = Scenario(seed=1)
    s.add_wireless_node("S")
    mac = s.macs["S"]
    make_selfish(mac, SelfishSenderConfig(cw_factor=0.25))
    assert mac.cw_min == 7
    assert mac.cw_max == 255
    assert mac.cw == 7


def test_selfish_sender_beats_honest_competitor():
    from repro.campaign.builders import sender_baseline

    honest = sender_baseline(1, 1.5, attack="none")
    selfish = sender_baseline(1, 1.5, attack="selfish-sender")
    assert selfish["attacker_share"] > honest["attacker_share"] + 0.15


def test_unknown_attack_rejected():
    from repro.campaign.builders import sender_baseline

    with pytest.raises(ValueError):
        sender_baseline(1, 0.1, attack="bogus")
