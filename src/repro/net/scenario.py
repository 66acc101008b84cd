"""Scenario builder: one-stop assembly of simulator, medium, nodes and flows.

Every experiment in :mod:`repro.experiments` builds on this.  A scenario owns
the event engine, RNG streams, the wireless medium, the nodes (wireless
stations, APs, wired remote hosts) and a shared GRC detection report.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.detection import (
    DetectionReport,
    NavValidator,
    RssiSpoofDetector,
)
from repro.core.greedy import GreedyConfig, GreedyReceiverPolicy
from repro.mac.dcf import DcfMac
from repro.mac.policy import ReceiverPolicy
from repro.net.node import Node
from repro.net.wired import WiredLink
from repro.obs import MetricsRegistry, current_registry, sweep_scenario
from repro.phy.channel import ChannelConfig, resolve_channel
from repro.phy.error import BitErrorModel
from repro.phy.medium import Medium, SinrMedium
from repro.phy.params import PhyParams, dot11b
from repro.phy.propagation import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

US_PER_S = 1_000_000.0


class Scenario:
    """A runnable network scenario."""

    def __init__(
        self,
        phy: PhyParams | None = None,
        seed: int = 0,
        rts_enabled: bool = True,
        capture_enabled: bool = True,
        telemetry: "MetricsRegistry | bool | None" = None,
        channel: "ChannelConfig | str | None" = None,
    ) -> None:
        self.phy = phy if phy is not None else dot11b()
        self.sim = Simulator()
        self.streams = RngStreams(seed)
        self.rts_enabled = rts_enabled
        #: Resolved channel configuration.  ``None`` inherits the ambient
        #: selection (:func:`repro.phy.channel.use_channel`); an explicit
        #: :class:`~repro.phy.channel.ChannelConfig` or model name overrides.
        cfg = resolve_channel(channel)
        self.channel: ChannelConfig = cfg
        self.error_model = BitErrorModel(default_ber=cfg.default_ber)
        medium_class = {"pairwise": Medium, "sinr": SinrMedium}[cfg.model]
        medium_kwargs: dict[str, Any] = dict(
            error_model=self.error_model,
            pathloss=PathLossModel(exponent=cfg.path_loss_exponent),
            capture_enabled=capture_enabled,
            rssi_jitter=cfg.jitter(),
        )
        if cfg.model == "sinr":
            medium_kwargs["noise_floor"] = cfg.noise_floor
            medium_kwargs["capture_margin"] = cfg.capture_margin
        self.medium = medium_class(
            self.sim,
            self.phy,
            self.streams.stream("phy.medium"),
            **medium_kwargs,
        )
        if cfg.ranges is not None:
            self.medium.configure_ranges(*cfg.ranges)
        self.nodes: dict[str, Node] = {}
        self.macs: dict[str, DcfMac] = {}
        self.policies: dict[str, ReceiverPolicy] = {}
        self.report = DetectionReport()
        self._auto_position = 0
        # Telemetry (repro.obs).  ``telemetry`` may be an explicit registry,
        # True (fresh registry), False (off even inside a capture()), or None
        # (attach the ambient capture registry, if any).  Only an *enabled*
        # registry is wired as ``self.obs``: components guard every hook with
        # ``obs is not None``, so a disabled/absent registry leaves the
        # simulation on the exact pre-instrumentation code path.
        if telemetry is None:
            registry = current_registry()
        elif isinstance(telemetry, bool):
            registry = MetricsRegistry() if telemetry else None
        else:
            registry = telemetry
        self.telemetry: MetricsRegistry | None = registry
        self.obs: MetricsRegistry | None = (
            registry if registry is not None and registry.enabled else None
        )
        if self.obs is not None:
            self.obs.scenarios += 1
            self.medium.obs = self.obs
            self.sim.track_heap = True
        #: Installed fault injector (:mod:`repro.faults`) or None.  Faults
        #: are strictly opt-in via :meth:`install_faults`; without it the
        #: scenario runs the exact pre-fault code paths.
        self.fault_injector: Any = None
        #: Live streaming-detection pipeline
        #: (:mod:`repro.core.detection.streaming`) or None.  Opt-in via
        #: :meth:`attach_streaming_detection`.
        self.streaming_pipeline: Any = None
        self._detection_tap: Any = None

    # ------------------------------------------------------------- nodes ----

    def add_wireless_node(
        self,
        name: str,
        position: tuple[float, float] | None = None,
        greedy: GreedyConfig | None = None,
        rts_enabled: bool | None = None,
        queue_limit: int = 50,
        eifs_enabled: bool = True,
    ) -> Node:
        """Create a station; ``greedy`` installs a misbehaving receiver policy."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name}")
        if position is None:
            # Default: co-located stations.  All received powers are then
            # equal, so capture never biases collisions — the idealized
            # "all nodes within communication range" setting of Section V.
            # Scenarios that rely on capture or ranges set positions
            # explicitly.
            position = (0.0, 0.0)
        # The medium decides the radio flavor (pairwise Radio vs SinrRadio).
        radio = self.medium.radio_class(self.medium, name, position)
        if greedy is not None:
            policy: ReceiverPolicy = GreedyReceiverPolicy(
                greedy, self.streams.stream(f"greedy.{name}")
            )
        else:
            policy = ReceiverPolicy()
        mac = DcfMac(
            self.sim,
            self.phy,
            radio,
            self.streams.stream(f"mac.{name}"),
            policy=policy,
            rts_enabled=self.rts_enabled if rts_enabled is None else rts_enabled,
            queue_limit=queue_limit,
            eifs_enabled=eifs_enabled,
        )
        if self.obs is not None:
            mac.obs = self.obs
        node = Node(name)
        node.attach_mac(mac)
        self.nodes[name] = node
        self.macs[name] = mac
        self.policies[name] = policy
        return node

    def add_wired_node(self, name: str) -> Node:
        """Create a node with no radio (a remote Internet host)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name}")
        node = Node(name)
        self.nodes[name] = node
        return node

    def wired_link(
        self, a: str, b: str, one_way_delay_us: float, bandwidth_bps: float | None = None
    ) -> WiredLink:
        """Connect two nodes with a fixed-latency wired link."""
        link = WiredLink(
            self.sim, self.nodes[a], self.nodes[b], one_way_delay_us, bandwidth_bps
        )
        return link

    def route_remote_flow(self, remote: str, ap: str, client: str, link: WiredLink) -> None:
        """Static routes for remote-sender traffic: remote <-(wire)-> AP <-> client."""
        self.nodes[remote].add_wired_route(client, link)
        self.nodes[ap].add_wireless_route(client)
        self.nodes[ap].add_wired_route(remote, link)
        self.nodes[client].add_wireless_route(remote, next_hop=ap)

    # ------------------------------------------------------------- flows ----

    def saturating_rate_bps(self) -> float:
        """A CBR rate comfortably above channel capacity."""
        return self.phy.data_rate * 1e6

    def udp_flow(
        self,
        src: str,
        dst: str,
        rate_bps: float | None = None,
        packet_size: int = 1024,
        flow_id: str | None = None,
    ):
        """CBR/UDP flow between two wireless nodes (auto-routed)."""
        from repro.transport.udp import CbrSource, UdpSink

        if rate_bps is None:
            rate_bps = self.saturating_rate_bps()
        if flow_id is None:
            flow_id = f"udp:{src}->{dst}"
        self._auto_route(src, dst)
        source = CbrSource(
            self.sim,
            self.nodes[src],
            flow_id,
            dst,
            rate_bps,
            packet_size,
            rng=self.streams.stream(f"cbr.{flow_id}"),
        )
        sink = UdpSink(self.sim, self.nodes[dst], flow_id)
        if self.obs is not None:
            source.obs = self.obs
            sink.obs = self.obs
        return source, sink

    def tcp_flow(
        self,
        src: str,
        dst: str,
        flow_id: str | None = None,
        auto_route: bool = True,
        **tcp_kwargs: Any,
    ):
        """TCP flow; for remote senders call :meth:`route_remote_flow` first
        and pass ``auto_route=False``."""
        from repro.transport.tcp import TcpReceiver, TcpSender

        if flow_id is None:
            flow_id = f"tcp:{src}->{dst}"
        if auto_route:
            self._auto_route(src, dst)
        sender = TcpSender(
            self.sim, self.nodes[src], flow_id, dst, **tcp_kwargs
        )
        receiver = TcpReceiver(self.sim, self.nodes[dst], flow_id, src)
        if self.obs is not None:
            sender.obs = self.obs
            receiver.obs = self.obs
        return sender, receiver

    def _auto_route(self, a: str, b: str) -> None:
        node_a, node_b = self.nodes[a], self.nodes[b]
        if node_a.mac is not None and node_b.mac is not None:
            node_a.add_wireless_route(b)
            node_b.add_wireless_route(a)

    # --------------------------------------------------------------- GRC ----

    def enable_nav_validation(
        self,
        node_names: list[str] | None = None,
        mtu_bytes: int = 1500,
        tolerance_us: float = 5.0,
    ) -> None:
        """Install the GRC NAV validator on the given (default: all) stations."""
        for name in node_names if node_names is not None else list(self.macs):
            self.macs[name].nav_validator = NavValidator(
                self.phy, name, self.report, mtu_bytes, tolerance_us
            )

    def enable_spoof_detection(
        self,
        sender_names: list[str] | None = None,
        threshold_db: float = 1.0,
        min_samples: int = 4,
    ) -> None:
        """Install the GRC RSSI spoofed-ACK detector on sender stations."""
        for name in sender_names if sender_names is not None else list(self.macs):
            self.macs[name].ack_inspector = RssiSpoofDetector(
                name,
                self.report,
                threshold_db=threshold_db,
                min_samples=min_samples,
            )

    def enable_autorate(
        self,
        node_names: list[str] | None = None,
        rates: tuple[float, ...] | None = None,
        **arf_kwargs,
    ) -> None:
        """Install ARF rate adaptation on the given (default: all) stations.

        The default rate ladder follows the scenario's PHY (802.11b or
        802.11a).  Pair with ``error_model.set_rate_profile`` to make higher
        rates lossier, which is what makes adaptation meaningful.
        """
        from repro.mac.autorate import (
            ArfRateController,
            DOT11A_RATES,
            DOT11B_RATES,
        )

        if rates is None:
            rates = DOT11A_RATES if self.phy.ofdm else DOT11B_RATES
        for name in node_names if node_names is not None else list(self.macs):
            self.macs[name].rate_controller = ArfRateController(rates, **arf_kwargs)

    # ----------------------------------------------------------- detection ---

    def attach_streaming_detection(self, pipeline: "Any" = None) -> "Any":
        """Run streaming misbehavior detection live, *during* the simulation.

        Wraps ``medium.transmit`` with a
        :class:`~repro.core.detection.streaming.DetectionTap` feeding
        ``pipeline`` (default: the standard
        :func:`~repro.core.detection.streaming.default_pipeline` for this
        scenario's PHY).  The tap only observes — no RNG draws, no MAC
        interaction — so attaching it never changes simulation behavior.
        Returns the pipeline; its accumulated
        :class:`~repro.core.detection.report.DetectionReport` is
        ``pipeline.report``.
        """
        from repro.core.detection.streaming import DetectionTap, default_pipeline

        if self._detection_tap is not None:
            raise RuntimeError("streaming detection is already attached")
        if pipeline is None:
            pipeline = default_pipeline(self.phy)
        self.streaming_pipeline = pipeline
        self._detection_tap = DetectionTap(self.medium, pipeline)
        return pipeline

    # -------------------------------------------------------------- faults ---

    def install_faults(self, plan: "Any") -> "Any":
        """Install a :class:`repro.faults.FaultPlan` on this scenario.

        Must run after every node the plan references has been added.  The
        models draw exclusively from dedicated ``faults.*`` RNG streams, so
        two runs with equal (seed, plan) are bit-identical, and a run whose
        plan is empty is bit-identical to one that never called this.
        Returns the :class:`repro.faults.FaultInjector` (its ``counters()``
        summarise what the models did).
        """
        from repro.faults import FaultInjector

        if self.fault_injector is not None:
            raise RuntimeError("install_faults() may only be called once")
        self.fault_injector = FaultInjector(self, plan)
        return self.fault_injector

    # ---------------------------------------------------------------- run ----

    def warm_caches(self) -> None:
        """Bind every sender's hearer list before the first frame flies.

        Purely a cache warm — the same lists are bound lazily on first
        transmit otherwise, with identical contents (no RNG is involved), so
        running this changes wall time, never behavior.  The geometry comes
        from the process-wide link table of this layout
        (:func:`repro.phy.medium.link_table`): the first scenario with a
        layout builds its rows (O(nodes x hearers) through the table's
        grid), later ones, such as the other seeds of one campaign point,
        only bind their radios' callbacks to them.  The perf harness calls
        it so timed regions measure the event loop, not that one-time work.
        """
        medium = self.medium
        for radio in medium.radios:
            medium._hearers_from(radio)

    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds.

        With telemetry attached, ends with the gauge sweep
        (:func:`repro.obs.sweep_scenario`): MacStats totals, engine counters
        and detection counts land in the registry with set semantics.
        Raises ``ValueError`` unless ``0 < duration_s < inf``: a NaN bound
        would never stop a saturated run, and a non-positive one runs nothing.
        """
        if not 0.0 < duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
        self.sim.run(until=self.sim.now + duration_s * US_PER_S)
        if self.obs is not None:
            sweep_scenario(self.obs, self)

    # ----------------------------------------------------------- lifetime ---

    def __del__(self) -> None:
        """Unlink the components, so reference counting frees the topology.

        The components point back at each other (radio <-> medium, radio <->
        MAC, MAC -> node callbacks, node <-> agents and wired links, queued
        events -> their owners' bound methods), but nothing points at the
        scenario, so this runs the moment its last reference goes.  Cutting
        those edges here frees the whole topology at once instead of leaving
        it to the cyclic collector.  Results stay readable through retained
        children: ``MacStats``, sinks, ``report``, tracer records,
        ``sim.now`` and ``sim.events_processed``, ``medium.frames_sent``.
        Running a dropped scenario's children is unsupported.  This may run
        at interpreter shutdown, so it imports nothing and never raises.
        """
        try:
            sim, medium, macs, nodes = self.sim, self.medium, self.macs, self.nodes
        except AttributeError:
            return  # __init__ raised, so nothing was linked yet
        sim._drop_pending()
        medium._unlink()
        for mac in macs.values():
            mac._unlink()
        for node in nodes.values():
            node._unlink()
