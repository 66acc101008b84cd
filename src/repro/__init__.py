"""Reproduction of "Greedy Receivers in IEEE 802.11 Hotspots: Impacts and
Detection" (Mi Kyung Han and Lili Qiu, DSN 2007).

Package map
-----------

* :mod:`repro.sim` — discrete-event engine and reproducible RNG streams.
* :mod:`repro.phy` — 802.11b/a timing, broadcast medium, capture, BER loss.
* :mod:`repro.mac` — full IEEE 802.11 DCF (NAV, backoff, RTS/CTS, retries).
* :mod:`repro.transport` — CBR/UDP and TCP Reno agents.
* :mod:`repro.net` — nodes, wired links, and the :class:`~repro.net.Scenario`
  builder.
* :mod:`repro.core` — **the paper's contribution**: greedy receiver
  misbehaviors (NAV inflation, ACK spoofing, fake ACKs), the GRC detection
  and mitigation suite, and the analytic model of Equations (1)-(2).
* :mod:`repro.testbed` — models substituting for the paper's hardware testbed
  (frame-corruption address survival, RSSI measurements, MadWifi emulations).
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------

>>> from repro import GreedyConfig, Scenario
>>> s = Scenario(seed=1)
>>> for name in ("NS", "NR", "GS"):
...     _ = s.add_wireless_node(name)
>>> _ = s.add_wireless_node("GR", greedy=GreedyConfig.nav_inflator(10_000.0))
>>> src1, _sink1 = s.udp_flow("NS", "NR")
>>> src2, _sink2 = s.udp_flow("GS", "GR")
>>> src1.start(); src2.start()
>>> s.run(1.0)  # the greedy receiver's flow now dominates the medium
"""

from repro._lazy import exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = exports(__name__, {
    ".core.greedy": ("GreedyConfig", "GreedyReceiverPolicy"),
    ".core.detection.report": ("DetectionReport",),
    ".net.scenario": ("Scenario",),
    ".phy.channel": ("ChannelConfig", "use_channel"),
    ".experiments.common": ("RunSettings",),
    ".stats.summary": ("ExperimentResult",),
    ".obs.registry": ("MetricsRegistry", "capture"),
    ".obs.snapshot": ("TelemetrySnapshot",),
    ".stats.trace": ("FrameTracer",),
    ".phy.profiles": ("resolve_phy",),
    ".phy.params": ("dot11a", "dot11b"),
})
__all__.append("__version__")
