"""Smoke + contract tests for the scenario builders the experiments run."""

import pytest

from repro.campaign import builders
from repro.experiments import common
from repro.mac.frames import FrameKind


DURATION = 0.6


def test_run_nav_pairs_keys_and_ranges():
    out = builders.nav_pairs(1, DURATION, transport="udp", n_pairs=3, n_greedy=1,
                               nav_inflation_us=5_000.0)
    for i in range(3):
        assert f"goodput_R{i}" in out
        assert out[f"goodput_R{i}"] >= 0.0
        assert f"cw_S{i}" in out
        assert f"rts_S{i}" in out
    assert "cwnd_S0" not in out  # UDP runs carry no TCP fields


def test_run_nav_pairs_tcp_reports_cwnd():
    out = builders.nav_pairs(1, DURATION, transport="tcp")
    assert "cwnd_S0" in out and "cwnd_S1" in out
    assert out["cwnd_S0"] >= 1.0


def test_run_nav_shared_sender_keys():
    out = builders.nav_shared_sender(
        1, DURATION, transport="tcp", n_receivers=3, nav_inflation_us=5_000.0
    )
    assert set(out) == {
        "goodput_R0", "goodput_R1", "goodput_R2",
        "cwnd_R0", "cwnd_R1", "cwnd_R2",
    }


def test_spoof_positions_guarantee_capture_at_senders():
    """The genuine receiver's ACK must be >= 10x stronger than the greedy
    receiver's spoof at every sender, for any pair count."""
    from repro.phy.propagation import PathLossModel, distance

    model = PathLossModel()
    for n_pairs in (2, 4, 8):
        positions = builders._spoof_positions(n_pairs)
        greedy = positions[f"R{n_pairs - 1}"]
        for i in range(n_pairs):
            sender = positions[f"S{i}"]
            for j in range(n_pairs - 1):
                victim = positions[f"R{j}"]
                rss_victim = model.rss(1.0, distance(sender, victim))
                rss_greedy = model.rss(1.0, distance(sender, greedy))
                assert rss_victim / rss_greedy >= 10.0, (n_pairs, i, j)


def test_run_spoof_tcp_pairs_shared_ap():
    out = builders.spoof_tcp_pairs(
        1, DURATION, ber=2e-4, n_pairs=2, shared_ap=True
    )
    assert "goodput_R0" in out and "goodput_R1" in out
    assert out["detections"] == 0.0  # GRC off by default


def test_run_spoof_udp_shared_ap_keys():
    out = builders.spoof_udp_shared_ap(1, DURATION, ber=2e-4)
    assert set(out) == {"goodput_NR", "goodput_GR"}


def test_run_remote_tcp_routes_and_runs():
    out = builders.remote_tcp(1, 1.0, wired_delay_us=2_000.0)
    assert out["goodput_NR"] > 0.0
    assert out["goodput_GR"] > 0.0


def test_run_fake_hidden_terminals_keys():
    out = builders.fake_hidden_terminals(1, DURATION, fake_percentages=(0.0, 50.0))
    assert set(out) == {"goodput_R0", "goodput_R1", "cw_S0", "cw_S1"}


def test_run_fake_inherent_loss_with_ber_variant():
    out = builders.fake_inherent_loss(
        1, DURATION, data_fer=0.0, greedy_flags=[False, True], ber=2e-4
    )
    assert out["goodput_R0"] > 0.0


def test_run_grc_nav_distance_keys():
    out = builders.grc_nav_distance(1, DURATION, pair_distance_m=30.0)
    assert set(out) == {"goodput_R1", "goodput_R2", "nav_detections"}


def test_settings_constants_sane():
    assert common.FULL_DURATION_S > common.QUICK_DURATION_S
    assert len(common.FULL_SEEDS) == 5  # the paper's 5 repetitions


def test_every_builder_is_defined_in_the_builders_module():
    """One definition per scenario family: no registered builder forwards to
    a runner that lives somewhere else."""
    for name, fn in builders.BUILDERS.items():
        assert fn.__module__ == "repro.campaign.builders", name
        assert getattr(builders, fn.__name__) is fn, name


@pytest.mark.parametrize("greedy_index", [2, -1])
def test_nav_shared_sender_rejects_out_of_range_greedy_index(greedy_index):
    with pytest.raises(ValueError, match=r"greedy_index must be in range\(2\)"):
        builders.nav_shared_sender(
            1, 0.3, n_receivers=2, nav_inflation_us=10_000.0,
            greedy_index=greedy_index,
        )


@pytest.mark.parametrize("n_greedy", [3, -1])
def test_nav_pairs_rejects_out_of_range_n_greedy(n_greedy):
    with pytest.raises(ValueError, match=r"n_greedy must be in 0\.\.2"):
        builders.nav_pairs(
            1, 0.3, n_pairs=2, n_greedy=n_greedy, nav_inflation_us=10_000.0
        )


@pytest.mark.parametrize("n_greedy", [3, -1])
def test_spoof_tcp_pairs_rejects_out_of_range_n_greedy(n_greedy):
    with pytest.raises(ValueError, match=r"n_greedy must be in 0\.\.2"):
        builders.spoof_tcp_pairs(1, 0.3, ber=0.0, n_pairs=2, n_greedy=n_greedy)
