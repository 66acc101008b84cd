"""The RTS-flood attack-zoo entry: attacker model, config validation,
frozen-seed ROC regression for its streaming detector, and the ext_rts_roc
experiment/campaign plumbing."""

from __future__ import annotations

import pytest

from repro.campaign.builders import rts_flood_roc
from repro.faults import FaultPlan, RtsFloodConfig
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.stats.trace import FrameTracer


def _flooded_scenario(seed=3, jitter_us=0.0):
    s = Scenario(seed=seed, channel=ChannelConfig(ranges=(55.0, 99.0)))
    s.add_wireless_node("S1", (0.0, 0.0))
    s.add_wireless_node("R1", (5.0, 0.0))
    tracer = FrameTracer(s.medium)
    s.install_faults(
        FaultPlan(
            rts_flood=RtsFloodConfig(
                period_us=2_000.0, nav_us=30_000.0, jitter_us=jitter_us
            )
        )
    )
    src, _sink = s.udp_flow("S1", "R1")
    src.start()
    return s, tracer


# -------------------------------------------------------------- attacker ----


def test_flood_config_validation():
    with pytest.raises(ValueError, match="period_us"):
        RtsFloodConfig(period_us=0.0)
    with pytest.raises(ValueError, match="nav_us"):
        RtsFloodConfig(nav_us=0.0)
    with pytest.raises(ValueError, match="nav_us"):
        RtsFloodConfig(nav_us=40_000.0)  # beyond the duration-field cap
    with pytest.raises(ValueError, match="jitter_us"):
        RtsFloodConfig(jitter_us=-1.0)
    with pytest.raises(ValueError, match="start_us"):
        RtsFloodConfig(start_us=-1.0)


def test_flood_plan_is_not_empty_and_counts_frames():
    plan = FaultPlan(rts_flood=RtsFloodConfig())
    assert not plan.empty
    s, tracer = _flooded_scenario()
    s.run(0.1)
    counters = s.fault_injector.counters()
    flood_frames = [
        r for r in tracer.records if r.sender == "FLOODER" and r.kind == "RTS"
    ]
    assert counters["rtsflood_frames"] == len(flood_frames) > 0
    assert all(r.nav_us == 30_000.0 for r in flood_frames)
    # Real decodable frames need no delivery hook: medium.faults stays unset.
    assert s.medium.faults is None


def test_flood_reserves_the_channel():
    """The DoS itself: honest traffic collapses once the flood starts."""
    clean = Scenario(seed=3, channel=ChannelConfig(ranges=(55.0, 99.0)))
    clean.add_wireless_node("S1", (0.0, 0.0))
    clean.add_wireless_node("R1", (5.0, 0.0))
    src, sink_clean = clean.udp_flow("S1", "R1")
    src.start()
    clean.run(0.25)
    flooded_s, tracer = _flooded_scenario()
    flooded_s.run(0.25)
    first_flood = min(
        r.time_us for r in tracer.records if r.sender == "FLOODER"
    )
    honest_after = [
        r
        for r in tracer.records
        if r.sender == "S1" and r.kind == "DATA" and r.time_us > first_flood
    ]
    assert sink_clean.goodput_mbps(250_000.0) > 0
    # Every overhearer defers for the claimed 30 ms reservation per 2 ms
    # period, so once the first flood RTS lands the honest pair gets nothing.
    assert honest_after == []


def test_flood_timing_is_deterministic_with_jitter():
    a_s, a_tracer = _flooded_scenario(jitter_us=500.0)
    a_s.run(0.1)
    b_s, b_tracer = _flooded_scenario(jitter_us=500.0)
    b_s.run(0.1)
    assert [r.to_line() for r in a_tracer.records] == [
        r.to_line() for r in b_tracer.records
    ]


# ------------------------------------------------ frozen-seed ROC pinning ---

#: Pinned operating points of the streaming flood detector at seed 1 over
#: 0.5 simulated seconds (flood period 10 ms, window 100 ms — ~10 flood RTS
#: per window): threshold -> (flagged on flooded run, detections on flooded
#: run, honest senders flagged on clean run, detections on clean run).
ROC_SEED = 1
ROC_DURATION_S = 0.5
ROC_PINNED = {
    2: (1.0, 5.0, 2.0, 6.0),
    8: (1.0, 5.0, 0.0, 0.0),
    32: (0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("threshold", sorted(ROC_PINNED))
def test_roc_operating_point_is_pinned(threshold):
    expected_tp, expected_det, expected_fp, expected_clean_det = ROC_PINNED[
        threshold
    ]
    flooded = rts_flood_roc(
        ROC_SEED, ROC_DURATION_S, threshold=threshold, flood=True
    )
    clean = rts_flood_roc(
        ROC_SEED, ROC_DURATION_S, threshold=threshold, flood=False
    )
    failures = []
    for name, got, pinned in (
        ("true_positive", flooded["flooder_flagged"], expected_tp),
        ("flood_detections", flooded["detections"], expected_det),
        ("false_positive", clean["honest_flagged"], expected_fp),
        ("clean_detections", clean["detections"], expected_clean_det),
    ):
        if got != pinned:
            failures.append(
                f"threshold {threshold}: {name} drifted to {got:g} — "
                f"pinned {pinned:g} (seed {ROC_SEED}, "
                f"{ROC_DURATION_S:g}s simulated)"
            )
    assert not failures, "\n".join(failures)


def test_roc_monotonicity_across_pinned_thresholds():
    """Raising the threshold never flags more: both rates fall (or hold)."""
    tps = [ROC_PINNED[t][0] for t in sorted(ROC_PINNED)]
    fps = [ROC_PINNED[t][2] for t in sorted(ROC_PINNED)]
    assert tps == sorted(tps, reverse=True)
    assert fps == sorted(fps, reverse=True)


# --------------------------------------------------- experiment plumbing ----


def test_ext_rts_roc_quick_end_to_end():
    from repro.experiments import get_entry
    from repro.experiments.common import RunSettings

    entry = get_entry("ext_rts_roc")
    assert entry.extension and entry.builder == "rts_flood_roc"
    settings = RunSettings(duration_s=0.3, seeds=(1,), mode="quick")
    result = entry.runner(settings)
    assert result.column("threshold") == [1.0, 8.0, 16.0]
    for row in result.rows:
        assert 0.0 <= row["true_positive"] <= 1.0
        assert 0.0 <= row["false_positive"] <= 1.0


def test_campaign_builder_matches_runner():
    """A campaign point's JobSpec round trip (module path + plain kwargs)
    runs exactly what a direct call does."""
    from repro.runtime import seed_job

    job = seed_job(rts_flood_roc, duration_s=0.2, threshold=4, flood=True)
    assert job.with_seed(5).run() == rts_flood_roc(
        5, 0.2, threshold=4, flood=True
    )


def test_campaign_spec_loads_and_runs_one_point(tmp_path):
    from repro.campaign import run_campaign
    from repro.campaign.spec import load_spec

    spec = load_spec("examples/campaigns/ext_rts_roc.toml", quick=True)
    assert spec.n_points == 6
    run_campaign(spec, out_dir=tmp_path / "run", use_cache=False)
