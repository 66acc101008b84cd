"""Unit tests for the Scenario builder."""

import pytest

from repro.core.greedy import GreedyConfig
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.params import dot11a


def test_default_phy_is_80211b():
    s = Scenario()
    assert s.phy.name == "802.11b"
    assert s.saturating_rate_bps() == pytest.approx(11e6)


def test_custom_phy():
    s = Scenario(phy=dot11a(6.0))
    assert s.phy.name == "802.11a"


def test_greedy_node_gets_greedy_policy():
    s = Scenario()
    s.add_wireless_node("gr", greedy=GreedyConfig.nav_inflator(1000.0))
    from repro.core.greedy import GreedyReceiverPolicy

    assert isinstance(s.policies["gr"], GreedyReceiverPolicy)
    s.add_wireless_node("nr")
    assert not isinstance(s.policies["nr"], GreedyReceiverPolicy)


def test_udp_flow_auto_routes():
    s = Scenario()
    s.add_wireless_node("a")
    s.add_wireless_node("b")
    src, sink = s.udp_flow("a", "b", rate_bps=1e6)
    src.start()
    s.run(0.2)
    assert sink.packets_received > 0


def test_tcp_flow_auto_routes():
    s = Scenario()
    s.add_wireless_node("a")
    s.add_wireless_node("b")
    snd, rcv = s.tcp_flow("a", "b")
    snd.start()
    s.run(0.5)
    assert rcv.segments_received > 0


def test_enable_nav_validation_installs_validators():
    s = Scenario()
    s.add_wireless_node("a")
    s.add_wireless_node("b")
    s.enable_nav_validation(["a"])
    assert s.macs["a"].nav_validator is not None
    assert s.macs["b"].nav_validator is None
    s.enable_nav_validation()  # default: everyone
    assert s.macs["b"].nav_validator is not None


def test_enable_spoof_detection_installs_inspectors():
    s = Scenario()
    s.add_wireless_node("a")
    s.add_wireless_node("b")
    s.enable_spoof_detection(["a"], threshold_db=2.0)
    assert s.macs["a"].ack_inspector is not None
    assert s.macs["a"].ack_inspector.threshold_db == 2.0
    assert s.macs["b"].ack_inspector is None


def test_detectors_share_the_scenario_report():
    s = Scenario()
    s.add_wireless_node("a")
    s.enable_nav_validation(["a"])
    s.enable_spoof_detection(["a"])
    assert s.macs["a"].nav_validator.report is s.report
    assert s.macs["a"].ack_inspector.report is s.report


def test_ranges_configure_medium():
    s = Scenario(channel=ChannelConfig(ranges=(55.0, 99.0)))
    assert s.medium.rx_threshold > s.medium.cs_threshold > 0


def test_run_advances_clock():
    s = Scenario()
    s.run(0.5)
    assert s.sim.now == pytest.approx(500_000.0)
    s.run(0.5)
    assert s.sim.now == pytest.approx(1_000_000.0)


def test_seed_reproducibility():
    def goodput(seed):
        s = Scenario(seed=seed)
        s.add_wireless_node("a")
        s.add_wireless_node("b")
        s.add_wireless_node("c")
        s.add_wireless_node("d")
        f1, k1 = s.udp_flow("a", "b")
        f2, k2 = s.udp_flow("c", "d")
        f1.start()
        f2.start()
        s.run(0.5)
        return k1.packets_received, k2.packets_received

    assert goodput(9) == goodput(9)
    assert goodput(9) != goodput(10)


@pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), -1.0, 0.0])
def test_run_rejects_a_non_finite_or_non_positive_duration(duration_s):
    """A NaN bound never stops a saturated run; a non-positive one runs
    nothing.  Both are errors, raised before the event loop starts."""
    s = Scenario()
    s.add_wireless_node("a")
    with pytest.raises(ValueError, match="duration_s must be positive and finite"):
        s.run(duration_s)
    assert s.sim.now == 0.0
