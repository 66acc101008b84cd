"""Shared scenario runners behind the per-figure experiment modules.

Every runner builds a :class:`repro.net.Scenario`, drives it for a fixed
duration, and returns a flat ``{metric: value}`` dict so that
:func:`repro.stats.median_over_seeds` can combine repetitions the way the
paper does (median of 5 runs).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.greedy import GreedyConfig
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import set_ber_all_pairs
from repro.phy.params import PhyParams, dot11b
from repro.phy.profiles import PHY_PROFILES, profile_names, resolve_phy
from repro.runtime import seed_job
from repro.stats.summary import ExperimentResult

__all__ = [
    "RunSettings",
    "experiment_api",
    "PHY_PROFILES",
    "profile_names",
    "resolve_phy",
    "seed_job",
    "run_nav_pairs",
    "run_nav_shared_sender",
    "run_spoof_tcp_pairs",
    "run_spoof_udp_shared_ap",
    "run_remote_tcp",
    "run_fake_hidden_terminals",
    "run_fake_inherent_loss",
    "run_grc_nav_distance",
    "run_hidden_node",
]

US_PER_S = 1_000_000.0

#: Default run length and seeds: the paper uses 5 repetitions per scenario.
FULL_DURATION_S = 5.0
FULL_SEEDS = (1, 2, 3, 4, 5)
QUICK_DURATION_S = 1.5
QUICK_SEEDS = (1, 2)


@dataclass(frozen=True)
class RunSettings:
    """Run length / repetition / telemetry settings shared by all experiments.

    The single argument of every experiment's ``run(settings)`` entrypoint.
    ``mode`` selects the full paper-scale sweep ("full") or the shrunk CI
    variant ("quick"); experiments branch on :attr:`is_quick` instead of a
    loose ``quick`` bool.  ``telemetry=True`` runs the experiment inside an
    ambient :func:`repro.obs.capture` and attaches the aggregated
    :class:`~repro.obs.TelemetrySnapshot` to the returned
    :class:`~repro.stats.summary.ExperimentResult`.
    """

    duration_s: float = FULL_DURATION_S
    seeds: Sequence[int] = FULL_SEEDS
    mode: str = "full"
    telemetry: bool = False
    #: Channel model name ("pairwise", "sinr") or None to inherit the ambient
    #: selection (:func:`repro.phy.channel.use_channel`).  Every scenario
    #: the experiment builds picks it up — runner signatures stay unchanged
    #: because selection is ambient — and runners that pin topology knobs
    #: via ``ChannelConfig(ranges=...)`` (model left None) still honor it.
    channel: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full", "quick"):
            raise ValueError(f"mode must be 'full' or 'quick', got {self.mode!r}")
        if self.channel is not None:
            from repro.phy.channel import CHANNEL_MODELS, channel_names

            if self.channel not in CHANNEL_MODELS:
                raise KeyError(
                    f"unknown channel model {self.channel!r}; "
                    f"known models: {channel_names()}"
                )
        object.__setattr__(self, "seeds", tuple(self.seeds))

    @property
    def is_quick(self) -> bool:
        """True for the shrunk CI variant (fewer seeds, shorter runs)."""
        return self.mode == "quick"

    def replace(self, **overrides: Any) -> "RunSettings":
        """A copy with the given fields overridden (frozen-safe)."""
        return dataclasses.replace(self, **overrides)

    @staticmethod
    def quick() -> "RunSettings":
        return RunSettings(QUICK_DURATION_S, QUICK_SEEDS, mode="quick")

    @staticmethod
    def for_mode(quick: bool) -> "RunSettings":
        return RunSettings.quick() if quick else RunSettings()


def experiment_api(
    fn: "Callable[[RunSettings], ExperimentResult]",
) -> "Callable[..., ExperimentResult]":
    """Wrap a ``fn(settings) -> ExperimentResult`` experiment body as the
    public ``run()`` entrypoint.

    ``run()`` with no argument means ``RunSettings()`` (the full sweep).
    When ``settings.telemetry`` is set, the wrapper runs the body inside an
    ambient :func:`repro.obs.capture` so every
    :class:`~repro.net.scenario.Scenario` the experiment builds reports into
    one registry; the snapshot lands on ``result.telemetry``.  The unwrapped
    body stays reachable as ``run.__wrapped__``.
    """

    def _body(resolved: RunSettings) -> ExperimentResult:
        if not resolved.telemetry:
            return fn(resolved)
        from repro.obs import MetricsRegistry, capture

        registry = MetricsRegistry()
        with capture(registry):
            result = fn(resolved)
        result.telemetry = registry.snapshot(experiment=fn.__module__.rsplit(".", 1)[-1])
        return result

    @functools.wraps(fn)
    def run(settings: RunSettings | None = None) -> ExperimentResult:
        resolved = settings if settings is not None else RunSettings()
        if resolved.channel is None:
            return _body(resolved)
        from repro.phy.channel import use_channel

        with use_channel(resolved.channel):
            return _body(resolved)

    return run


# ---------------------------------------------------------------- NAV runs --


def run_nav_pairs(
    seed: int,
    duration_s: float,
    transport: str = "udp",
    phy: PhyParams | str | None = None,
    nav_inflation_us: float = 0.0,
    inflate_frames: Iterable[FrameKind] = (FrameKind.CTS,),
    greedy_percentage: float = 100.0,
    n_pairs: int = 2,
    n_greedy: int = 1,
) -> dict[str, float]:
    """``n_pairs`` sender->receiver pairs, the last ``n_greedy`` receivers
    greedy (NAV inflation).  Returns per-receiver goodput plus sender CW and
    RTS counters (Figures 1, 2, 4-9 and Table II all read from this)."""
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    frames = frozenset(inflate_frames)
    flows = []
    for i in range(n_pairs):
        s.add_wireless_node(f"S{i}")
    for i in range(n_pairs):
        greedy = None
        if i >= n_pairs - n_greedy and nav_inflation_us > 0:
            greedy = GreedyConfig.nav_inflator(
                nav_inflation_us, frames, greedy_percentage
            )
        s.add_wireless_node(f"R{i}", greedy=greedy)
    out: dict[str, float] = {}
    for i in range(n_pairs):
        if transport == "udp":
            src, sink = s.udp_flow(f"S{i}", f"R{i}")
            src.start()
            flows.append(("udp", sink, None))
        else:
            snd, rcv = s.tcp_flow(f"S{i}", f"R{i}")
            snd.start()
            flows.append(("tcp", rcv, snd))
    s.run(duration_s)
    us = duration_s * US_PER_S
    for i, (kind, rx, snd) in enumerate(flows):
        out[f"goodput_R{i}"] = rx.goodput_mbps(us)
        stats = s.macs[f"S{i}"].stats
        out[f"cw_S{i}"] = stats.average_cw
        out[f"rts_S{i}"] = float(stats.tx_rts)
        if kind == "tcp":
            out[f"cwnd_S{i}"] = snd.cwnd_stats.average()
    return out


def run_nav_shared_sender(
    seed: int,
    duration_s: float,
    transport: str = "udp",
    phy: PhyParams | str | None = None,
    nav_inflation_us: float = 0.0,
    inflate_frames: Iterable[FrameKind] = (FrameKind.CTS,),
    n_receivers: int = 2,
    greedy_index: int | None = None,
) -> dict[str, float]:
    """One sender, ``n_receivers`` receivers, one of them inflating NAV
    (Figure 10 and the 1-sender column of Table II)."""
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    s.add_wireless_node("S")
    if greedy_index is None:
        greedy_index = n_receivers - 1
    frames = frozenset(inflate_frames)
    flows = []
    for i in range(n_receivers):
        greedy = None
        if i == greedy_index and nav_inflation_us > 0:
            greedy = GreedyConfig.nav_inflator(nav_inflation_us, frames)
        s.add_wireless_node(f"R{i}", greedy=greedy)
    for i in range(n_receivers):
        if transport == "udp":
            src, sink = s.udp_flow("S", f"R{i}")
            src.start()
            flows.append((sink, None))
        else:
            snd, rcv = s.tcp_flow("S", f"R{i}")
            snd.start()
            flows.append((rcv, snd))
    s.run(duration_s)
    us = duration_s * US_PER_S
    out: dict[str, float] = {}
    for i, (rx, snd) in enumerate(flows):
        out[f"goodput_R{i}"] = rx.goodput_mbps(us)
        if snd is not None:
            out[f"cwnd_R{i}"] = snd.cwnd_stats.average()
    return out


# -------------------------------------------------------------- spoof runs --


def _spoof_positions(n_pairs: int) -> dict[str, tuple[float, float]]:
    """Geometry for ACK-spoofing runs.

    Senders cluster near the origin, normal receivers sit on a 10 m ring and
    the greedy receiver at 30 m: the power ratio (30/10)^4 = 81 exceeds the
    10x capture threshold, so a genuine ACK always captures the spoofed one
    at the sender (the no-collision case the paper's evaluation isolates).
    """
    positions = {}
    for i in range(n_pairs):
        positions[f"S{i}"] = (0.5 * i, 0.0)
        positions[f"R{i}"] = (10.0, 2.0 * i)  # normal receivers: 10 m ring
    positions[f"R{n_pairs - 1}"] = (30.0, 0.0)  # the greedy one sits farther
    return positions


def run_spoof_tcp_pairs(
    seed: int,
    duration_s: float,
    ber: float,
    phy: PhyParams | str | None = None,
    spoof_percentage: float = 100.0,
    n_pairs: int = 2,
    n_greedy: int = 1,
    shared_ap: bool = False,
    grc: bool = False,
    grc_threshold_db: float = 1.0,
) -> dict[str, float]:
    """TCP flows with the last ``n_greedy`` receivers spoofing MAC ACKs on
    behalf of all normal receivers (Figures 11-14 and 24)."""
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    positions = _spoof_positions(n_pairs)
    sender_names = ["S0"] if shared_ap else [f"S{i}" for i in range(n_pairs)]
    for name in sender_names:
        s.add_wireless_node(name, position=positions.get(name, (0.0, 0.0)))
    victims = frozenset(
        f"R{i}" for i in range(n_pairs - n_greedy)
    )
    for i in range(n_pairs):
        greedy = None
        if i >= n_pairs - n_greedy and spoof_percentage > 0:
            # Mutual spoofers (Figure 13) also spoof for each other.
            others = frozenset(f"R{j}" for j in range(n_pairs) if j != i)
            greedy = GreedyConfig.ack_spoofer(
                spoof_percentage, victims=others if n_greedy > 1 else victims
            )
        s.add_wireless_node(f"R{i}", position=positions[f"R{i}"], greedy=greedy)
    if ber > 0:
        set_ber_all_pairs(s.error_model, list(s.nodes), ber)
    if grc:
        s.enable_spoof_detection(sender_names, threshold_db=grc_threshold_db)
    flows = []
    for i in range(n_pairs):
        sender = "S0" if shared_ap else f"S{i}"
        snd, rcv = s.tcp_flow(sender, f"R{i}")
        snd.start()
        flows.append((rcv, snd))
    s.run(duration_s)
    us = duration_s * US_PER_S
    out: dict[str, float] = {}
    for i, (rcv, _snd) in enumerate(flows):
        out[f"goodput_R{i}"] = rcv.goodput_mbps(us)
    out["detections"] = float(s.report.count("rssi-spoof"))
    return out


def run_spoof_udp_shared_ap(
    seed: int,
    duration_s: float,
    ber: float,
    phy: PhyParams | str | None = None,
    spoof_percentage: float = 100.0,
    greedy: bool = True,
) -> dict[str, float]:
    """Figure 17: one AP sends CBR/UDP to a normal and a greedy receiver; the
    greedy one spoofs ACKs for the normal one, stealing service time."""
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    s.add_wireless_node("AP", position=(0.0, 0.0))
    s.add_wireless_node("NR", position=(10.0, 0.0))
    config = (
        GreedyConfig.ack_spoofer(spoof_percentage, victims={"NR"}) if greedy else None
    )
    s.add_wireless_node("GR", position=(30.0, 0.0), greedy=config)
    if ber > 0:
        set_ber_all_pairs(s.error_model, ["AP", "NR", "GR"], ber)
    # Split the AP's saturating rate between the two flows so the shared MAC
    # queue stays contended but not pathologically overloaded.
    rate = s.saturating_rate_bps() / 2
    src1, sink1 = s.udp_flow("AP", "NR", rate_bps=rate)
    src2, sink2 = s.udp_flow("AP", "GR", rate_bps=rate)
    src1.start()
    src2.start()
    s.run(duration_s)
    us = duration_s * US_PER_S
    return {
        "goodput_NR": sink1.goodput_mbps(us),
        "goodput_GR": sink2.goodput_mbps(us),
    }


def run_remote_tcp(
    seed: int,
    duration_s: float,
    wired_delay_us: float,
    ber: float = 2e-5,
    phy: PhyParams | str | None = None,
    spoof_percentage: float = 0.0,
    grc: bool = False,
    window: int = 100,
) -> dict[str, float]:
    """Figures 15-16: two remote TCP senders behind a wired link to one AP,
    two wireless receivers, the greedy one spoofing ACKs for the other."""
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    # Queue deeper than the sum of both TCP windows: the paper studies
    # wireless losses, not router buffer overflow, and a shallow AP queue
    # phase-locks the two synchronized flows into asymmetric drop patterns.
    s.add_wireless_node("AP", position=(0.0, 0.0), queue_limit=2 * window + 50)
    s.add_wireless_node("NR", position=(10.0, 0.0))
    config = (
        GreedyConfig.ack_spoofer(spoof_percentage, victims={"NR"})
        if spoof_percentage > 0
        else None
    )
    s.add_wireless_node("GR", position=(30.0, 0.0), greedy=config)
    if ber > 0:
        set_ber_all_pairs(s.error_model, ["AP", "NR", "GR"], ber)
    if grc:
        s.enable_spoof_detection(["AP"])
    remote1 = s.add_wired_node("W1")
    remote2 = s.add_wired_node("W2")
    link1 = s.wired_link("W1", "AP", wired_delay_us)
    link2 = s.wired_link("W2", "AP", wired_delay_us)
    s.route_remote_flow("W1", "AP", "NR", link1)
    s.route_remote_flow("W2", "AP", "GR", link2)
    # A window beyond the path's bandwidth-delay product keeps the wireless
    # hop the bottleneck even at 400 ms wireline latency, as in the paper.
    snd1, rcv1 = s.tcp_flow("W1", "NR", auto_route=False, window=window)
    snd2, rcv2 = s.tcp_flow("W2", "GR", auto_route=False, window=window)
    snd1.start()
    snd2.start()
    s.run(duration_s)
    us = duration_s * US_PER_S
    return {
        "goodput_NR": rcv1.goodput_mbps(us),
        "goodput_GR": rcv2.goodput_mbps(us),
    }


# ---------------------------------------------------------- fake-ACK runs --


def run_fake_hidden_terminals(
    seed: int,
    duration_s: float,
    fake_percentages: Sequence[float] = (0.0, 100.0),
    phy: PhyParams | str | None = None,
) -> dict[str, float]:
    """Figure 18 / Table IV: two hidden senders, receivers in between; each
    receiver fake-ACKs with its own greedy percentage (0 = honest)."""
    s = Scenario(
        phy=resolve_phy(phy) or dot11b(),
        seed=seed,
        rts_enabled=False,
        channel=ChannelConfig(ranges=(55.0, 99.0)),
    )
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("S1", position=(108.0, 0.0))
    for i, gp in enumerate(fake_percentages):
        greedy = GreedyConfig.ack_faker(gp) if gp > 0 else None
        s.add_wireless_node(f"R{i}", position=(54.0, 1.0 - 2.0 * i), greedy=greedy)
    sinks = []
    for i in range(len(fake_percentages)):
        src, sink = s.udp_flow(f"S{i}", f"R{i}")
        src.start()
        sinks.append(sink)
    s.run(duration_s)
    us = duration_s * US_PER_S
    out: dict[str, float] = {}
    for i, sink in enumerate(sinks):
        out[f"goodput_R{i}"] = sink.goodput_mbps(us)
        out[f"cw_S{i}"] = s.macs[f"S{i}"].stats.average_cw
    return out


def run_fake_inherent_loss(
    seed: int,
    duration_s: float,
    data_fer: float,
    greedy_flags: Sequence[bool],
    phy: PhyParams | str | None = None,
    ber: float | None = None,
) -> dict[str, float]:
    """Table V / Figure 19: per-pair APs in range, inherent medium losses,
    some receivers fake-ACKing.  ``data_fer`` sets a direct data frame error
    rate; pass ``ber`` instead for Figure 19's random-BER variant."""
    n = len(greedy_flags)
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed, rts_enabled=False)
    for i in range(n):
        s.add_wireless_node(f"S{i}")
    for i, flag in enumerate(greedy_flags):
        greedy = GreedyConfig.ack_faker() if flag else None
        s.add_wireless_node(f"R{i}", greedy=greedy)
    for i in range(n):
        if ber is not None:
            s.error_model.set_ber(f"S{i}", f"R{i}", ber)
        else:
            s.error_model.set_data_fer(f"S{i}", f"R{i}", data_fer)
    sinks = []
    for i in range(n):
        src, sink = s.udp_flow(f"S{i}", f"R{i}")
        src.start()
        sinks.append(sink)
    s.run(duration_s)
    us = duration_s * US_PER_S
    out = {f"goodput_R{i}": sink.goodput_mbps(us) for i, sink in enumerate(sinks)}
    for i in range(n):
        out[f"cw_S{i}"] = s.macs[f"S{i}"].stats.average_cw
    return out


# -------------------------------------------------------- hidden-node run --


def run_hidden_node(
    seed: int,
    duration_s: float,
    rts: bool = False,
    channel: str | None = "sinr",
    phy: PhyParams | str | None = "dot11a",
    packet_size: int = 1024,
) -> dict[str, float]:
    """Classic hidden-terminal triangle: S0 and S1 flank one AP at 54 m each
    (108 m apart — outside the 99 m interference range, so they cannot sense
    each other), both uplinking saturated UDP.  Without RTS/CTS their data
    frames overlap at the AP and the SINR margin corrupts both; with RTS/CTS
    the AP's CTS sets the other sender's NAV and throughput recovers.

    ``channel`` selects the interference model by name ("sinr" by default —
    the scenario this model exists for; "pairwise" for comparison; None
    inherits the ambient selection).  Plain string so campaign job specs
    stay cache-addressable.  Defaults to 802.11a: its control frames fly at
    6 Mbps, so the RTS/CTS handshake is cheap and the recovery is the
    classic ~3-4x (802.11b's 1 Mbps control rate makes the handshake cost
    about what the collisions do).
    """
    s = Scenario(
        phy=resolve_phy(phy) or dot11b(),
        seed=seed,
        rts_enabled=rts,
        channel=ChannelConfig(model=channel, ranges=(55.0, 99.0)),
    )
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("AP", position=(54.0, 0.0))
    s.add_wireless_node("S1", position=(108.0, 0.0))
    sinks = []
    for name in ("S0", "S1"):
        src, sink = s.udp_flow(name, "AP", packet_size=packet_size)
        src.start()
        sinks.append(sink)
    s.run(duration_s)
    us = duration_s * US_PER_S
    out: dict[str, float] = {}
    total = 0.0
    for name, sink in zip(("S0", "S1"), sinks):
        goodput = sink.goodput_mbps(us)
        out[f"goodput_{name}"] = goodput
        total += goodput
        stats = s.macs[name].stats
        out[f"cw_{name}"] = stats.average_cw
        out[f"rts_{name}"] = float(stats.tx_rts)
    out["goodput_total"] = total
    return out


# ----------------------------------------------------------- GRC NAV runs --


def run_grc_nav_distance(
    seed: int,
    duration_s: float,
    pair_distance_m: float,
    transport: str = "udp",
    grc: bool = True,
    nav_inflation_us: float = 31_000.0,
    phy: PhyParams | str | None = None,
) -> dict[str, float]:
    """Figure 23: the greedy pair (S2, R2) sits ``pair_distance_m`` away from
    the normal pair (S1, R1); communication range 55 m, interference 99 m.

    Within the sender's range the validators clamp the CTS NAV exactly; in
    the 45-55 m band they fall back to the 1500-byte MTU bound."""
    s = Scenario(
        phy=resolve_phy(phy) or dot11b(),
        seed=seed,
        channel=ChannelConfig(ranges=(55.0, 99.0)),
    )
    d = pair_distance_m
    s.add_wireless_node("S1", position=(d, 0.0))
    s.add_wireless_node("R1", position=(d + 5.0, 0.0))
    s.add_wireless_node("S2", position=(0.0, 0.0))
    s.add_wireless_node(
        "R2",
        position=(5.0, 0.0),
        greedy=GreedyConfig.nav_inflator(nav_inflation_us, {FrameKind.CTS})
        if nav_inflation_us > 0
        else None,
    )
    if grc:
        s.enable_nav_validation(["S1", "R1"])
    results = []
    for src, dst in (("S1", "R1"), ("S2", "R2")):
        if transport == "udp":
            source, sink = s.udp_flow(src, dst)
            source.start()
            results.append(sink)
        else:
            snd, rcv = s.tcp_flow(src, dst)
            snd.start()
            results.append(rcv)
    s.run(duration_s)
    us = duration_s * US_PER_S
    return {
        "goodput_R1": results[0].goodput_mbps(us),
        "goodput_R2": results[1].goodput_mbps(us),
        "nav_detections": float(s.report.count("nav")),
    }
