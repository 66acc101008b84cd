"""A dropped scenario is freed by reference counting, not by the cyclic GC.

A scenario's components point back at each other, so a dead topology used
to be cyclic garbage that only a full collection could free.
``Scenario.__del__`` unlinks them instead.  Every case here runs with the
collector disabled (after one ``gc.collect()``), so ``gc.collect() == 0``
after ``del`` means reference counting alone freed everything.  Each case
also checks that what a caller reads before the drop is still there
afterwards through the children it kept.
"""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro.campaign.builders import builder_names, get_builder
from repro.net.scenario import Scenario
from repro.phy.medium import link_table
from repro.perf.scenarios import get_scenario, scenario_names
from repro.stats.trace import FrameTracer
from repro.transport.udp import BacklogSource, UdpSink
from tests.test_fuzz_determinism import QUICK_CASES, _build_case
from tests.test_layout import instance_fields

RUN_S = 0.02

#: One small grid point per campaign builder: its required arguments, plus
#: overrides that switch on the fault models the defaults leave off.
BUILDER_POINTS = {
    "nav_pairs_sorted": {"nav_ms": 1.0, "n_greedy": 1},
    "spoof_tcp_pairs": {"ber": 2e-4},
    "spoof_udp_shared_ap": {"ber": 2e-4},
    "remote_tcp": {"wired_delay_us": 1000.0},
    "grc_nav_distance": {"pair_distance_m": 40.0},
    "jammer_crash": {"duty_pct": 20.0, "crash": True},
}


@pytest.fixture(autouse=True)
def _collector_off():
    """Collector off; each case starts with its own ``gc.collect()``.

    That first collect runs in the test body, not here: pytest releases a
    failed case's frames only when the next case's call starts, and they
    must not count against it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _children(scenario):
    """The pieces of a scenario a caller may keep after dropping it."""
    agents = [
        agent for node in scenario.nodes.values() for agent in node._agents.values()
    ]
    return scenario.sim, scenario.medium, dict(scenario.macs), scenario.report, agents


def _read(sim, medium, macs, report, agents, tracer=None):
    """Every result a caller reads after a run, from the kept children."""
    values = {
        "now": sim.now,
        "events": sim.events_processed,
        "frames_sent": medium.frames_sent,
        "radios": len(medium.radios),
        "stats": {name: repr(mac.stats) for name, mac in macs.items()},
        "detections": list(report.events),
        "agents": [
            {
                key: value
                for key, value in instance_fields(agent)
                if type(value) in (int, float)
            }
            for agent in agents
        ],
    }
    if tracer is not None:
        values["trace"] = [record.to_dict() for record in tracer.records]
        values["airtime"] = tracer.airtime_by_sender()
    return values


def _assert_drop_frees_everything(make):
    """Drop a run scenario; check that refcounting freed it, results intact.

    ``make()`` returns the run scenario and its tracer (or None), and keeps
    no other reference to the scenario.
    """
    gc.collect()
    scenario, tracer = make()
    kept = _children(scenario)
    before = _read(*kept, tracer=tracer)
    assert before["events"] > 0
    ref = weakref.ref(scenario)
    del scenario
    assert ref() is None, "something still holds the scenario"
    assert gc.collect() == 0
    assert _read(*kept, tracer=tracer) == before
    assert kept[0].pending_events == 0
    del kept, tracer
    assert gc.collect() == 0  # the kept children held no cycle either


@pytest.mark.parametrize("name", scenario_names())
def test_dropped_perf_scenario_leaves_no_cyclic_garbage(name):
    def make():
        built = get_scenario(name).build(3)
        built.scenario.run(RUN_S)
        assert built.metrics(RUN_S * 1e6)
        return built.scenario, None

    _assert_drop_frees_everything(make)


@pytest.mark.parametrize("name", scenario_names())
def test_live_run_creates_no_cyclic_garbage(name):
    gc.collect()
    built = get_scenario(name).build(3)
    assert gc.collect() == 0
    built.scenario.run(RUN_S)
    assert gc.collect() == 0
    assert built.scenario.sim.events_processed > 0


@pytest.mark.parametrize("case_seed", QUICK_CASES)
def test_dropped_fuzz_case_with_tracer_leaves_no_cyclic_garbage(case_seed):
    def make():
        scenario = _build_case(case_seed)
        tracer = FrameTracer(scenario.medium)
        scenario.run(RUN_S)
        assert tracer.records
        return scenario, tracer

    _assert_drop_frees_everything(make)


def test_dropped_backlog_flow_leaves_no_cyclic_garbage():
    def make():
        scenario = Scenario(seed=1)
        sender = scenario.add_wireless_node("a")
        scenario.add_wireless_node("b")
        scenario._auto_route("a", "b")
        # Chains the MAC's completion callbacks through closures over itself.
        BacklogSource(scenario.sim, sender, "flow", "b").start()
        UdpSink(scenario.sim, scenario.nodes["b"], "flow")
        scenario.run(RUN_S)
        return scenario, None

    _assert_drop_frees_everything(make)


def test_dropped_scenario_with_idle_timers_leaves_no_cyclic_garbage():
    """The DCF and TCP timers live with their owners and point back at them
    even while idle; dropping the scenario must unhook them all."""

    def make():
        scenario = Scenario(seed=1)
        scenario.add_wireless_node("a")
        scenario.add_wireless_node("b")
        sender, _ = scenario.tcp_flow("a", "b")
        sender.start()
        scenario.run(0.2)
        timers = [sender._rto_timer] + [
            timer
            for mac in scenario.macs.values()
            for timer in (mac._access_timer, mac._cts_timer, mac._ack_timer)
        ]
        assert all(timer.seq >= 0 for timer in timers), "every timer was armed"
        return scenario, None

    _assert_drop_frees_everything(make)


def test_link_memo_keeps_no_dropped_topology_alive():
    """The process-wide link tables outlive every scenario that used them,
    so they must hold no radio: a dropped scenario's radios die with it."""
    gc.collect()
    built = get_scenario("dense_hotspot_sinr").build(3)
    built.scenario.warm_caches()
    built.scenario.run(RUN_S)
    medium = built.scenario.medium
    assert medium._links is not None and link_table.cache_info().currsize >= 1
    radio = weakref.ref(medium.radios[7])
    del built, medium
    assert radio() is None, "something still holds a dropped radio"
    assert gc.collect() == 0


def test_dropped_scenario_with_detection_tap_leaves_no_cyclic_garbage():
    pipelines = []

    def make():
        scenario = get_scenario("grc_nav").build(5).scenario
        pipelines.append(scenario.attach_streaming_detection())
        scenario.run(RUN_S)
        return scenario, None

    _assert_drop_frees_everything(make)
    assert pipelines[0].records_seen > 0


@pytest.mark.parametrize("name", builder_names())
def test_campaign_builder_point_leaves_no_cyclic_garbage(name):
    gc.collect()
    metrics = get_builder(name)(seed=1, duration_s=0.05, **BUILDER_POINTS.get(name, {}))
    assert metrics
    assert gc.collect() == 0


def test_scenario_whose_init_raised_is_dropped_quietly(monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    with pytest.raises(KeyError):
        Scenario(channel="no-such-model")  # raises after the simulator exists
    assert gc.collect() == 0
    assert unraisable == []
