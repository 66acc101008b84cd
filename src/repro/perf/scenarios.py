"""Canonical scenarios for the core microbenchmark and golden-trace suite.

Each :class:`PerfScenario` assembles one of the paper's hotspot topologies
*without running it*, so the harness can time exactly the event loop
(:meth:`repro.sim.engine.Simulator.run`) and the golden-trace capture can
attach a :class:`repro.stats.trace.FrameTracer` before the first frame flies.

The three registered scenarios bracket the simulator's hot paths:

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

import math
from dataclasses import dataclass
from typing import Callable, Dict

from repro.core.greedy import GreedyConfig
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import set_ber_all_pairs
from repro.phy.params import dot11a

US_PER_S = 1_000_000.0

#: ``build(seed) -> (scenario, metrics)`` where ``metrics(duration_us)``
#: reads the per-flow goodputs after the run.
Builder = Callable[[int], "BuiltScenario"]


@dataclass(frozen=True)
class BuiltScenario:
    """A ready-to-run scenario plus its metric reader."""

    scenario: Scenario
    metrics: Callable[[float], Dict[str, float]]


@dataclass(frozen=True)
class PerfScenario:
    """One registered microbenchmark scenario."""

    name: str
    description: str
    duration_s: float  # default simulated seconds for timing runs
    build: Builder


SCENARIOS: dict[str, PerfScenario] = {}


def _register(name: str, description: str, duration_s: float):
    def wrap(fn: Builder) -> Builder:
        if name in SCENARIOS:
            raise ValueError(f"duplicate perf scenario {name!r}")
        SCENARIOS[name] = PerfScenario(name, description, duration_s, fn)
        return fn

    return wrap


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


@_register(
    "fig1_nav_udp",
    "two saturated UDP pairs, GR inflates CTS NAV by 600 us (Figure 1)",
    duration_s=2.0,
)
def _fig1_nav_udp(seed: int) -> BuiltScenario:
    s = Scenario(seed=seed)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node(
        "R1", greedy=GreedyConfig.nav_inflator(600.0, frozenset({FrameKind.CTS}))
    )
    src0, sink0 = s.udp_flow("S0", "R0")
    src1, sink1 = s.udp_flow("S1", "R1")
    src0.start()
    src1.start()

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_R0": sink0.goodput_mbps(duration_us),
            "goodput_R1": sink1.goodput_mbps(duration_us),
        }

    return BuiltScenario(s, metrics)


@_register(
    "fig8_nav_tcp",
    "two TCP pairs, GR inflates CTS NAV by 10 ms (one Figure 8 sweep point)",
    duration_s=2.0,
)
def _fig8_nav_tcp(seed: int) -> BuiltScenario:
    s = Scenario(seed=seed)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node(
        "R1", greedy=GreedyConfig.nav_inflator(10_000.0, frozenset({FrameKind.CTS}))
    )
    snd0, rcv0 = s.tcp_flow("S0", "R0")
    snd1, rcv1 = s.tcp_flow("S1", "R1")
    snd0.start()
    snd1.start()

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_R0": rcv0.goodput_mbps(duration_us),
            "goodput_R1": rcv1.goodput_mbps(duration_us),
        }

    return BuiltScenario(s, metrics)


@_register(
    "dense_hotspot",
    "48 spatially separated hotspot cells (240 nodes) with the paper's "
    "Figure 23 ranges — the dense-deployment stress on the medium",
    duration_s=0.5,
)
def _dense_hotspot(seed: int) -> BuiltScenario:
    return build_hotspot_grid(seed, cells=48, spacing_m=250.0, channel=None)


@_register(
    "hidden_node_sinr",
    "hidden-terminal triangle on the SINR medium (802.11a, RTS off) — "
    "aggregate-interference corruption at the AP",
    duration_s=1.0,
)
def _hidden_node_sinr(seed: int) -> BuiltScenario:
    """The channel-model seam's signature workload, pinned for golden traces.

    S0 and S1 flank one AP at 54 m each, 108 m apart — outside the 99 m
    interference range, so neither sender can carrier-sense the other.  On
    the pairwise medium each uplink frame is judged by a two-signal power
    ratio; on the ``sinr`` medium the AP accumulates interference power from
    *all* concurrent transmissions, so the overlapping data frames corrupt
    each other exactly as hidden terminals do in a real hotspot.  The model
    is pinned explicitly (not inherited from the ambient selection) so the
    committed golden trace means the same thing under any ``--channel``.
    """
    s = Scenario(
        phy=dot11a(),
        seed=seed,
        rts_enabled=False,
        channel=ChannelConfig(model="sinr", ranges=(55.0, 99.0)),
    )
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("AP", position=(54.0, 0.0))
    s.add_wireless_node("S1", position=(108.0, 0.0))
    src0, sink0 = s.udp_flow("S0", "AP")
    src1, sink1 = s.udp_flow("S1", "AP")
    src0.start()
    src1.start()

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_S0": sink0.goodput_mbps(duration_us),
            "goodput_S1": sink1.goodput_mbps(duration_us),
        }

    return BuiltScenario(s, metrics)


def build_hotspot_grid(
    seed: int,
    cells: int = 24,
    clients: int = 4,
    spacing_m: float = 72.0,
    channel: str | None = "sinr",
) -> BuiltScenario:
    """Assemble a square grid of hotspot cells, one AP + ``clients`` uplink
    clients each, with the paper's 55 m communication / 99 m interference
    ranges (Figure 23).  Cell 0's AP inflates the NAV of its MAC ACKs (the
    no-RTS variant of the paper's receiver misbehavior), keeping the greedy
    machinery on the timed path.  The spacing decides what the grid stresses:

    * 250 m (``dense_hotspot``, 48 cells, ambient channel): the cells are
      isolated, so each sender has every other radio in the grid but only
      the ones in its own cell can hear it.  The medium's hearer lists
      filter those once per sender (a grid lookup, a distance prune, then
      the exact carrier-sense threshold), so per-frame fan-out stays at the
      cell size and the one-time build looks at each sender's own cell
      only — the dense-deployment stress on the medium.
    * 72 m (``dense_hotspot_sinr``, 24 cells, SINR medium): the cells
      overlap.  Adjacent cells carrier-sense each other while diagonal and
      more distant cells (>= 101 m) stay mutually hidden, so uplink frames
      arrive at each AP with live interference from transmitters one to two
      cells away.  Those interferers sit in the band where a single pairwise
      power ratio still clears the 10x capture threshold but the *aggregate*
      interference sum does not clear the per-rate SINR margin — the regime
      where the two channel models genuinely diverge (measurably different
      per-cell goodput for equal seeds).

    Shared by both perf scenarios and the ``dense_hotspot_sinr`` campaign
    builder; ``channel`` is a plain model name (None inherits the ambient
    selection) so campaign job specs stay cache-addressable.
    """
    s = Scenario(
        seed=seed,
        rts_enabled=False,
        channel=ChannelConfig(model=channel, ranges=(55.0, 99.0)),
    )
    sinks = []
    side = math.ceil(math.sqrt(cells))
    for c in range(cells):
        cx, cy = (c % side) * spacing_m, (c // side) * spacing_m
        ap = f"AP{c}"
        greedy = None
        if c == 0:
            greedy = GreedyConfig.nav_inflator(600.0, frozenset({FrameKind.ACK}))
        s.add_wireless_node(ap, position=(cx, cy), greedy=greedy)
        for k in range(clients):
            angle = 2.0 * math.pi * k / clients
            name = f"C{c}_{k}"
            s.add_wireless_node(
                name,
                position=(
                    cx + 12.0 * math.cos(angle),
                    cy + 12.0 * math.sin(angle),
                ),
            )
            src, sink = s.udp_flow(name, ap, rate_bps=1.2e6, packet_size=400)
            src.start()
            sinks.append(sink)

    def metrics(duration_us: float) -> Dict[str, float]:
        goodputs = [sink.goodput_mbps(duration_us) for sink in sinks]
        return {
            "goodput_total": sum(goodputs),
            "goodput_cell0": sum(goodputs[:clients]),
            "goodput_min": min(goodputs),
        }

    return BuiltScenario(s, metrics)


@_register(
    "dense_hotspot_sinr",
    "24 overlapping hotspot cells (120 nodes) on the SINR medium — "
    "cross-cell aggregate interference at every AP",
    duration_s=0.5,
)
def _dense_hotspot_sinr(seed: int) -> BuiltScenario:
    return build_hotspot_grid(seed)


@_register(
    "grc_nav",
    "GRC NAV-validation operating point: GR inflates CTS NAV by 31 ms, "
    "honest pair runs the Section VII-A validator (Figure 21/23 regime)",
    duration_s=2.0,
)
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

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_R0": sink0.goodput_mbps(duration_us),
            "goodput_R1": sink1.goodput_mbps(duration_us),
            "nav_detections": float(s.report.count("nav")),
        }

    return BuiltScenario(s, metrics)


@_register(
    "grc_spoof",
    "GRC spoof-detection operating point: BER 2e-4, GR spoofs MAC ACKs, "
    "RSSI spoof detection on the victim sender (Figure 22/24 regime)",
    duration_s=2.0,
)
def _grc_spoof(seed: int) -> BuiltScenario:
    """The detection-side companion of ``spoof_tcp``.

    Same spoofing geometry and error rate, but the victim's sender runs the
    RSSI spoof detector — the golden trace carries impersonated ACKs (for
    the trace-level impersonation detector) and ``s.report`` the RSSI
    detections.
    """
    s = Scenario(seed=seed)
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("S1", position=(0.5, 0.0))
    s.add_wireless_node("R0", position=(10.0, 0.0))
    s.add_wireless_node(
        "R1",
        position=(30.0, 0.0),
        greedy=GreedyConfig.ack_spoofer(victims=frozenset({"R0"})),
    )
    set_ber_all_pairs(s.error_model, ["S0", "S1", "R0", "R1"], 2e-4)
    s.enable_spoof_detection(["S0"])
    snd0, rcv0 = s.tcp_flow("S0", "R0")
    snd1, rcv1 = s.tcp_flow("S1", "R1")
    snd0.start()
    snd1.start()

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_R0": rcv0.goodput_mbps(duration_us),
            "goodput_R1": rcv1.goodput_mbps(duration_us),
            "spoof_detections": float(s.report.count("rssi-spoof")),
        }

    return BuiltScenario(s, metrics)


@_register(
    "spoof_tcp",
    "two TCP pairs at BER 2e-4, GR spoofs MAC ACKs for NR (Figure 11 peak)",
    duration_s=2.0,
)
def _spoof_tcp(seed: int) -> BuiltScenario:
    s = Scenario(seed=seed)
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("S1", position=(0.5, 0.0))
    s.add_wireless_node("R0", position=(10.0, 0.0))
    s.add_wireless_node(
        "R1",
        position=(30.0, 0.0),
        greedy=GreedyConfig.ack_spoofer(victims=frozenset({"R0"})),
    )
    set_ber_all_pairs(s.error_model, ["S0", "S1", "R0", "R1"], 2e-4)
    snd0, rcv0 = s.tcp_flow("S0", "R0")
    snd1, rcv1 = s.tcp_flow("S1", "R1")
    snd0.start()
    snd1.start()

    def metrics(duration_us: float) -> Dict[str, float]:
        return {
            "goodput_R0": rcv0.goodput_mbps(duration_us),
            "goodput_R1": rcv1.goodput_mbps(duration_us),
        }

    return BuiltScenario(s, metrics)
