"""Canonical scenarios for the core microbenchmark and golden-trace suite.

Each :class:`PerfScenario` assembles one of the paper's hotspot topologies
*without running it*, so the harness can time exactly the event loop
(:meth:`repro.sim.engine.Simulator.run`) and the golden-trace capture can
attach a :class:`repro.stats.trace.FrameTracer` before the first frame flies.

Almost every scenario is a named point of a :mod:`repro.campaign.builders`
family — a ``(family, params, duration)`` row whose build is the family's
``runner.build`` — so a perf scenario, a campaign point and a ``repro run``
row at the same parameters execute one definition.  Only ``grc_nav``, whose
geometry no family sweeps, is built by hand here.  The rows bracket the
simulator's hot paths:

* ``fig1_nav_udp`` — the paper's headline NAV-inflation point (two saturated
  UDP pairs, 802.11b, greedy receiver inflating CTS NAV by 600 us): RTS/CTS
  exchanges, NAV timers, saturated backoff.
* ``fig8_nav_tcp`` — one Figure 8 sweep point (two TCP pairs, 10 ms CTS NAV
  inflation): TCP timers and ACK-clocked traffic on top of DCF.
* ``spoof_tcp`` — the Figure 11 operating point (BER 2e-4, spoofing
  geometry): positioned nodes, capture resolution, per-frame error rolls and
  spoofed-ACK responses.

Scenario construction is deterministic for a fixed seed (named RNG
substreams), which is what makes byte-for-byte trace comparison meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.campaign.builders import BuiltScenario, get_builder
from repro.core.greedy import GreedyConfig
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig

#: ``build(seed) -> BuiltScenario``; the scenario is built, not yet run.
Builder = Callable[[int], BuiltScenario]


@dataclass(frozen=True)
class PerfScenario:
    """One registered microbenchmark scenario."""

    name: str
    description: str
    duration_s: float  # default simulated seconds for timing runs
    build: Builder


SCENARIOS: dict[str, PerfScenario] = {}


def _add(name: str, description: str, duration_s: float, build: Builder) -> None:
    if name in SCENARIOS:
        raise ValueError(f"duplicate perf scenario {name!r}")
    SCENARIOS[name] = PerfScenario(name, description, duration_s, build)


def _row(name: str, description: str, duration_s: float, family: str, **params) -> None:
    """Register one family point; its build gets the row's duration."""
    build = get_builder(family).build
    _add(name, description, duration_s,
         functools.partial(build, duration_s=duration_s, **params))


def scenario_names() -> list[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> PerfScenario:
    """Look a scenario up by name; raises a readable ``KeyError``."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise KeyError(
            f"unknown perf scenario {name!r}; known scenarios: {scenario_names()}"
        )
    return scenario


def _grc_nav(seed: int) -> BuiltScenario:
    """The detection-side companion of ``fig1_nav_udp``.

    Positioned nodes with the paper's 55 m / 99 m ranges, a near-maximal
    CTS NAV inflation (31 ms, just under the 802.11 duration-field cap) and
    the GRC NAV validator enabled on the honest pair — so the committed
    golden trace carries a dense stream of inflated NAV values for the
    trace-level detectors, and ``s.report`` carries the MAC-level
    detections the paper's countermeasure produces.
    """
    s = Scenario(seed=seed, channel=ChannelConfig(ranges=(55.0, 99.0)))
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("R0", position=(50.0, 0.0))
    s.add_wireless_node("S1", position=(0.0, 5.0))
    s.add_wireless_node(
        "R1",
        position=(5.0, 5.0),
        greedy=GreedyConfig.nav_inflator(31_000.0, frozenset({FrameKind.CTS})),
    )
    s.enable_nav_validation(["S0", "R0"])
    src0, sink0 = s.udp_flow("S0", "R0")
    src1, sink1 = s.udp_flow("S1", "R1")
    src0.start()
    src1.start()

    def metrics(duration_us: float) -> dict[str, float]:
        return {
            "goodput_R0": sink0.goodput_mbps(duration_us),
            "goodput_R1": sink1.goodput_mbps(duration_us),
            "nav_detections": float(s.report.count("nav")),
        }

    return BuiltScenario(s, metrics)


# Registration order is presentation order (``repro perf --list``).
_row("fig1_nav_udp",
     "two saturated UDP pairs, GR inflates CTS NAV by 600 us (Figure 1)",
     2.0, "nav_pairs", nav_inflation_us=600.0)
_row("fig8_nav_tcp",
     "two TCP pairs, GR inflates CTS NAV by 10 ms (one Figure 8 sweep point)",
     2.0, "nav_pairs", transport="tcp", nav_inflation_us=10_000.0)
_row("dense_hotspot",
     "48 spatially separated hotspot cells (240 nodes) with the paper's "
     "Figure 23 ranges — the dense-deployment stress on the medium",
     0.5, "dense_hotspot_sinr", channel=None, cells=48, spacing_m=250.0)
_row("hidden_node_sinr",
     "hidden-terminal triangle on the SINR medium (802.11a, RTS off) — "
     "aggregate-interference corruption at the AP",
     1.0, "hidden_node")
_row("dense_hotspot_sinr",
     "24 overlapping hotspot cells (120 nodes) on the SINR medium — "
     "cross-cell aggregate interference at every AP",
     0.5, "dense_hotspot_sinr")
_add("grc_nav",
     "GRC NAV-validation operating point: GR inflates CTS NAV by 31 ms, "
     "honest pair runs the Section VII-A validator (Figure 21/23 regime)",
     2.0, _grc_nav)
_row("grc_spoof",
     "GRC spoof-detection operating point: BER 2e-4, GR spoofs MAC ACKs, "
     "RSSI spoof detection on the senders (Figure 22/24 regime)",
     2.0, "spoof_tcp_pairs", ber=2e-4, grc=True)
_row("spoof_tcp",
     "two TCP pairs at BER 2e-4, GR spoofs MAC ACKs for NR (Figure 11 peak)",
     2.0, "spoof_tcp_pairs", ber=2e-4)
