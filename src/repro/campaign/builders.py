"""The paper's hotspot scenario families, each defined once.

A *family* is a ``build(seed, duration_s, **params) -> BuiltScenario`` that
assembles one of the paper's hotspot topologies without running it, so the
perf scenarios, golden traces and ``repro trace`` can attach a tracer or
time the event loop before the first frame flies.  :func:`family` registers
the one runner every family shares, ``builder(seed, duration_s, **params)
-> {metric: value}``: it builds, drives the scenario for ``duration_s``
simulated seconds and returns a flat metric dict, so
:func:`repro.stats.median_over_seeds` can combine repetitions the way the
paper does (median of 5 runs).  Every argument may be given as plain data
(strings instead of enums, PHY profile names instead of
:class:`~repro.phy.params.PhyParams` objects), which buys two things at
once:

* they are addressable by :class:`repro.runtime.JobSpec` (module path +
  JSON-stable kwargs), so campaign points fan out over worker processes and
  land in the on-disk result cache;
* every argument can be written literally in a TOML campaign spec.

The per-figure experiment modules call these same functions through
``seed_job(builders.<name>, ...)``, so a campaign point and the
corresponding ``repro run`` row execute one definition — bit-identical
metrics for equal seeds, by construction.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.detection.streaming import (
    StreamingDetectionPipeline,
    StreamingRtsFloodDetector,
)
from repro.core.baseline import SelfishSenderConfig, make_selfish
from repro.core.greedy import GreedyConfig
from repro.core.model import sending_ratio
from repro.faults import (
    CrashConfig,
    FaultPlan,
    GilbertElliottConfig,
    JammerConfig,
    RtsFloodConfig,
)
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import set_ber_all_pairs
from repro.phy.params import MAX_NAV_US, PhyParams, dot11a, dot11b
from repro.phy.profiles import resolve_phy

US_PER_S = 1_000_000.0

#: Builder name -> module-level runner.  Insertion order is presentation
#: order (``repro campaign`` help, docs).
BUILDERS: dict[str, Callable[..., dict[str, float]]] = {}


def register(name: str) -> Callable[[Callable[..., dict[str, float]]], Callable[..., dict[str, float]]]:
    """Class-level decorator: publish a builder under ``name``."""

    def _register(fn: Callable[..., dict[str, float]]) -> Callable[..., dict[str, float]]:
        if name in BUILDERS:
            raise ValueError(f"duplicate builder name {name!r}")
        BUILDERS[name] = fn
        return fn

    return _register


@dataclass(frozen=True)
class BuiltScenario:
    """A ready-to-run scenario plus its metric reader.

    ``metrics(duration_us)`` reads the family's metrics once the scenario
    has run for ``duration_us`` simulated microseconds.
    """

    scenario: Scenario
    metrics: Callable[[float], dict[str, float]]


def family(name: str) -> Callable[[Callable[..., BuiltScenario]], Callable[..., dict[str, float]]]:
    """Decorator: publish a family's build as its registered runner.

    The runner builds, runs the scenario for ``duration_s`` and returns
    ``metrics(duration_s * US_PER_S)``; the build stays reachable as
    ``runner.build``.  ``functools.wraps`` gives the runner the build's
    module, qualname and parameters, so job specs, cache keys and spec
    validation address it by the family's name; its signature says it
    returns the metric dict.
    """

    def wrap(build: Callable[..., BuiltScenario]) -> Callable[..., dict[str, float]]:
        @functools.wraps(build)
        def runner(seed: int, duration_s: float, **params) -> dict[str, float]:
            built = build(seed, duration_s, **params)
            built.scenario.run(duration_s)
            return built.metrics(duration_s * US_PER_S)

        runner.__signature__ = inspect.signature(build).replace(
            return_annotation="dict[str, float]"
        )
        runner.build = build
        return register(name)(runner)

    return wrap


def builder_names() -> list[str]:
    """All registered builder names, in registration order."""
    return list(BUILDERS)


def get_builder(name: str) -> Callable[..., dict[str, float]]:
    """Look a builder up by name; raises a readable ``KeyError``."""
    builder = BUILDERS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario builder {name!r}; known builders: {builder_names()}"
        )
    return builder


def builder_for_experiment(experiment_id: str) -> Callable[..., dict[str, float]]:
    """The builder behind a paper artifact, via the experiment registry.

    Resolves ``experiment_id`` (e.g. ``"fig8"``) through
    :func:`repro.experiments.get_entry` and returns the registered builder
    that sweeps the same scenario family.  Raises ``KeyError`` for unknown
    ids and ``ValueError`` for artifacts with no single scenario builder
    (analytic or Monte-Carlo ones such as table1, and ext_autorate, which
    sweeps two families).
    """
    from repro.experiments import get_entry

    entry = get_entry(experiment_id)
    if entry.builder is None:
        raise ValueError(
            f"experiment {experiment_id!r} ({entry.artifact}) has no campaign "
            "builder; it is analytic or testbed-derived, or it sweeps several "
            "families"
        )
    return get_builder(entry.builder)


def _frames(names: Iterable[str | FrameKind]) -> tuple[FrameKind, ...]:
    """Convert frame-kind names ("CTS", "ACK", ...) to :class:`FrameKind`."""
    out = []
    for name in names:
        if isinstance(name, FrameKind):
            out.append(name)
            continue
        try:
            out.append(FrameKind[str(name).upper()])
        except KeyError:
            raise ValueError(
                f"unknown frame kind {name!r}; known: {[k.name for k in FrameKind]}"
            ) from None
    return tuple(out)


def _nav_from_alpha(alpha: float | None, nav_inflation_us: float | None) -> float:
    """Resolve the NAV inflation from either axis (Fig. 1 zips both).

    ``alpha`` is the paper's x-axis unit (NAV += alpha * 100 us); specs may
    zip it with the literal microsecond value for readable result tables, in
    which case the two must agree.
    """
    if alpha is not None:
        derived = float(alpha) * 100.0
        if nav_inflation_us is not None and float(nav_inflation_us) != derived:
            raise ValueError(
                f"alpha={alpha} implies nav_inflation_us={derived}, "
                f"but nav_inflation_us={nav_inflation_us} was given"
            )
        return derived
    return float(nav_inflation_us) if nav_inflation_us is not None else 0.0


def _check_n_greedy(n_greedy: int, n_pairs: int) -> None:
    """Reject a greedy count the ``n_pairs`` topology cannot hold."""
    if not 0 <= n_greedy <= n_pairs:
        raise ValueError(
            f"n_greedy must be in 0..{n_pairs} (the number of pairs), got {n_greedy}"
        )


def _start_flows(
    s: Scenario,
    pairs: Iterable[tuple[str, str]],
    transport: str = "udp",
    **flow_kwargs,
) -> tuple[list, list]:
    """Open and start one flow per ``(sender, receiver)`` pair, in order.

    ``transport`` is "udp" (CBR, saturating unless ``rate_bps`` is given) or
    "tcp"; ``flow_kwargs`` go to every ``udp_flow``/``tcp_flow`` call.
    Returns the receiving ends (UDP sinks or TCP receivers) and the TCP
    senders (None for a UDP flow), both in pair order.
    """
    if transport not in ("udp", "tcp"):
        raise ValueError(f"transport must be 'udp' or 'tcp', got {transport!r}")
    sinks, senders = [], []
    for src, dst in pairs:
        if transport == "udp":
            source, sink = s.udp_flow(src, dst, **flow_kwargs)
            senders.append(None)
        else:
            source, sink = s.tcp_flow(src, dst, **flow_kwargs)
            senders.append(source)
        source.start()
        sinks.append(sink)
    return sinks, senders


# ------------------------------------------------------- NAV inflation -----


@family("nav_pairs")
def nav_pairs(
    seed: int,
    duration_s: float,
    transport: str = "udp",
    phy: PhyParams | str | None = None,
    nav_inflation_us: float | None = None,
    alpha: float | None = None,
    inflate_frames: Sequence[str | FrameKind] = ("CTS",),
    greedy_percentage: float = 100.0,
    n_pairs: int = 2,
    n_greedy: int = 1,
) -> BuiltScenario:
    """``n_pairs`` sender->receiver pairs, the last ``n_greedy`` receivers
    greedy (NAV inflation).  Returns per-receiver goodput plus sender CW and
    RTS counters (Figures 1, 2, 4-9 and Table II all read from this).
    ``alpha`` is the Fig. 1 axis: NAV += alpha*100 us."""
    _check_n_greedy(n_greedy, n_pairs)
    nav_inflation_us = _nav_from_alpha(alpha, nav_inflation_us)
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    frames = frozenset(_frames(inflate_frames))
    for i in range(n_pairs):
        s.add_wireless_node(f"S{i}")
    for i in range(n_pairs):
        greedy = None
        if i >= n_pairs - n_greedy and nav_inflation_us > 0:
            greedy = GreedyConfig.nav_inflator(
                nav_inflation_us, frames, greedy_percentage
            )
        s.add_wireless_node(f"R{i}", greedy=greedy)
    sinks, senders = _start_flows(
        s, [(f"S{i}", f"R{i}") for i in range(n_pairs)], transport
    )

    def metrics(us: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, (rx, snd) in enumerate(zip(sinks, senders)):
            out[f"goodput_R{i}"] = rx.goodput_mbps(us)
            stats = s.macs[f"S{i}"].stats
            out[f"cw_S{i}"] = stats.average_cw
            out[f"rts_S{i}"] = float(stats.tx_rts)
            if snd is not None:
                out[f"cwnd_S{i}"] = snd.cwnd_stats.average()
        return out

    return BuiltScenario(s, metrics)


@register("nav_pairs_sorted")
def nav_pairs_sorted(
    seed: int,
    duration_s: float,
    nav_ms: float,
    n_greedy: int,
    transport: str = "tcp",
    phy: str | None = None,
) -> dict[str, float]:
    """Figure 8's per-seed view of :func:`nav_pairs`: two pairs, 0/1/2 greedy
    receivers, plus sorted ``goodput_hi``/``goodput_lo`` columns so the
    winner-takes-all outcome survives the median over seeds."""
    out = nav_pairs(
        seed,
        duration_s,
        transport=transport,
        phy=phy,
        nav_inflation_us=nav_ms * 1000.0 if n_greedy else 0.0,
        inflate_frames=(FrameKind.CTS,),
        n_greedy=max(n_greedy, 1),
    )
    hi, lo = sorted((out["goodput_R0"], out["goodput_R1"]), reverse=True)
    return {
        "goodput_R0": out["goodput_R0"],
        "goodput_R1": out["goodput_R1"],
        "goodput_hi": hi,
        "goodput_lo": lo,
    }


@family("nav_shared_sender")
def nav_shared_sender(
    seed: int,
    duration_s: float,
    transport: str = "udp",
    phy: PhyParams | str | None = None,
    nav_inflation_us: float = 0.0,
    inflate_frames: Sequence[str | FrameKind] = ("CTS",),
    n_receivers: int = 2,
    greedy_index: int | None = None,
) -> BuiltScenario:
    """One sender, ``n_receivers`` receivers, one of them inflating NAV
    (Figure 10 and the 1-sender column of Table II).  ``greedy_index``
    defaults to the last receiver."""
    if greedy_index is None:
        greedy_index = n_receivers - 1
    elif greedy_index not in range(n_receivers):
        raise ValueError(
            f"greedy_index must be in range({n_receivers}) (one of the "
            f"receivers), got {greedy_index}"
        )
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    s.add_wireless_node("S")
    frames = frozenset(_frames(inflate_frames))
    for i in range(n_receivers):
        greedy = None
        if i == greedy_index and nav_inflation_us > 0:
            greedy = GreedyConfig.nav_inflator(nav_inflation_us, frames)
        s.add_wireless_node(f"R{i}", greedy=greedy)
    sinks, senders = _start_flows(
        s, [("S", f"R{i}") for i in range(n_receivers)], transport
    )

    def metrics(us: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, (rx, snd) in enumerate(zip(sinks, senders)):
            out[f"goodput_R{i}"] = rx.goodput_mbps(us)
            if snd is not None:
                out[f"cwnd_R{i}"] = snd.cwnd_stats.average()
        return out

    return BuiltScenario(s, metrics)


@family("rts_share_model")
def rts_share_model(seed: int, duration_s: float, v_slots: int = 0) -> BuiltScenario:
    """Figure 3: NS->NR and GS->GR saturated UDP, GR inflating the NAV of its
    CTS and ACK frames by ``v_slots`` slot times.  Returns GS's measured share
    of all RTS sent and the share Equations (1)-(2) predict when fed the CW
    distributions measured in the same run."""
    s = Scenario(seed=seed)
    s.add_wireless_node("NS")
    s.add_wireless_node("GS")
    s.add_wireless_node("NR")
    greedy = None
    if v_slots > 0:
        greedy = GreedyConfig.nav_inflator(
            v_slots * s.phy.slot_time, {FrameKind.CTS, FrameKind.ACK}
        )
    s.add_wireless_node("GR", greedy=greedy)
    _start_flows(s, [("NS", "NR"), ("GS", "GR")])

    def metrics(_us: float) -> dict[str, float]:
        ns, gs = s.macs["NS"].stats, s.macs["GS"].stats
        total_rts = ns.tx_rts + gs.tx_rts
        dist_ns = ns.cw_distribution()
        if not dist_ns:  # NS never transmitted: it was fully starved
            dist_ns = {s.phy.cw_min: 1.0}
        predicted, _ = sending_ratio(gs.cw_distribution(), dist_ns, float(v_slots))
        return {
            "measured_gs_share": gs.tx_rts / total_rts if total_rts else 0.5,
            "model_gs_share": predicted,
        }

    return BuiltScenario(s, metrics)


# --------------------------------------------------------- ACK spoofing ----


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


@family("spoof_tcp_pairs")
def spoof_tcp_pairs(
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
) -> BuiltScenario:
    """TCP flows with the last ``n_greedy`` receivers spoofing MAC ACKs on
    behalf of all normal receivers, optional GRC RSSI detection
    (Figures 11-14 and 24)."""
    _check_n_greedy(n_greedy, n_pairs)
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
    receivers, _ = _start_flows(
        s, [("S0" if shared_ap else f"S{i}", f"R{i}") for i in range(n_pairs)], "tcp"
    )

    def metrics(us: float) -> dict[str, float]:
        out = {f"goodput_R{i}": rcv.goodput_mbps(us) for i, rcv in enumerate(receivers)}
        out["detections"] = float(s.report.count("rssi-spoof"))
        return out

    return BuiltScenario(s, metrics)


@family("spoof_udp_shared_ap")
def spoof_udp_shared_ap(
    seed: int,
    duration_s: float,
    ber: float,
    phy: PhyParams | str | None = None,
    spoof_percentage: float = 100.0,
    greedy: bool = True,
) -> BuiltScenario:
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
    (nr, gr), _ = _start_flows(s, [("AP", "NR"), ("AP", "GR")], rate_bps=rate)
    return BuiltScenario(s, lambda us: {
        "goodput_NR": nr.goodput_mbps(us),
        "goodput_GR": gr.goodput_mbps(us),
    })


@family("remote_tcp")
def remote_tcp(
    seed: int,
    duration_s: float,
    wired_delay_us: float,
    ber: float = 2e-5,
    phy: PhyParams | str | None = None,
    spoof_percentage: float = 0.0,
    grc: bool = False,
    window: int = 100,
) -> BuiltScenario:
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
    s.add_wired_node("W1")
    s.add_wired_node("W2")
    link1 = s.wired_link("W1", "AP", wired_delay_us)
    link2 = s.wired_link("W2", "AP", wired_delay_us)
    s.route_remote_flow("W1", "AP", "NR", link1)
    s.route_remote_flow("W2", "AP", "GR", link2)
    # A window beyond the path's bandwidth-delay product keeps the wireless
    # hop the bottleneck even at 400 ms wireline latency, as in the paper.
    (nr, gr), _ = _start_flows(
        s, [("W1", "NR"), ("W2", "GR")], "tcp", auto_route=False, window=window
    )
    return BuiltScenario(s, lambda us: {
        "goodput_NR": nr.goodput_mbps(us),
        "goodput_GR": gr.goodput_mbps(us),
    })


# ------------------------------------------------------------ fake ACKs ----


@family("fake_hidden_terminals")
def fake_hidden_terminals(
    seed: int,
    duration_s: float,
    fake_percentages: Sequence[float] = (0.0, 100.0),
    phy: PhyParams | str | None = None,
) -> BuiltScenario:
    """Figure 18 / Table IV: two hidden senders, receivers in between; each
    receiver fake-ACKs with its own greedy percentage (0 = honest)."""
    fake_percentages = tuple(fake_percentages)
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
    sinks, _ = _start_flows(
        s, [(f"S{i}", f"R{i}") for i in range(len(fake_percentages))]
    )

    def metrics(us: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, sink in enumerate(sinks):
            out[f"goodput_R{i}"] = sink.goodput_mbps(us)
            out[f"cw_S{i}"] = s.macs[f"S{i}"].stats.average_cw
        return out

    return BuiltScenario(s, metrics)


@family("fake_inherent_loss")
def fake_inherent_loss(
    seed: int,
    duration_s: float,
    data_fer: float = 0.0,
    greedy_flags: Sequence[bool] = (False, True),
    phy: PhyParams | str | None = None,
    ber: float | None = None,
) -> BuiltScenario:
    """Table V / Figure 19: per-pair APs in range, inherent medium losses,
    some receivers fake-ACKing.  ``data_fer`` sets a direct data frame error
    rate; pass ``ber`` instead for Figure 19's random-BER variant."""
    greedy_flags = tuple(bool(f) for f in greedy_flags)
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
    sinks, _ = _start_flows(s, [(f"S{i}", f"R{i}") for i in range(n)])

    def metrics(us: float) -> dict[str, float]:
        out = {f"goodput_R{i}": sink.goodput_mbps(us) for i, sink in enumerate(sinks)}
        for i in range(n):
            out[f"cw_S{i}"] = s.macs[f"S{i}"].stats.average_cw
        return out

    return BuiltScenario(s, metrics)


# ------------------------------------------------------------------ GRC ----


@family("grc_nav_distance")
def grc_nav_distance(
    seed: int,
    duration_s: float,
    pair_distance_m: float,
    transport: str = "udp",
    grc: bool = True,
    nav_inflation_us: float = 31_000.0,
    phy: PhyParams | str | None = None,
) -> BuiltScenario:
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
    (r1, r2), _ = _start_flows(s, [("S1", "R1"), ("S2", "R2")], transport)
    return BuiltScenario(s, lambda us: {
        "goodput_R1": r1.goodput_mbps(us),
        "goodput_R2": r2.goodput_mbps(us),
        "nav_detections": float(s.report.count("nav")),
    })


# ---------------------------------------------------- testbed emulation ----
#
# The paper's MadWifi testbed (Section VI, Tables VI-IX) emulated some
# misbehaviors with driver modifications; these families apply the same
# modifications to the simulated MAC, on 802.11a at 6 Mbps:
#
# * NAV inflation (Tables VI-VII): R1 inflates the NAV of the chosen frames
#   to the protocol maximum (32767 us);
# * ACK spoofing (Table VIII): the sender disables MAC retransmissions toward
#   the victim only (``mac.no_retransmit_to``);
# * fake ACKs (Table IX): the greedy receiver's sender clamps CW_max to
#   CW_min toward it (``mac.cw_max_to``).


@family("testbed_pairs")
def testbed_pairs(
    seed: int,
    duration_s: float,
    transport: str = "udp",
    rts: bool = True,
    inflate_frames: Sequence[str | FrameKind] = (),
    data_fer: float | None = None,
    clamp_cw: bool = False,
) -> BuiltScenario:
    """Tables VI, VII and IX: pairs S1->R1 and S2->R2, R1 the greedy side.

    Non-empty ``inflate_frames`` makes R1 inflate their NAV to the maximum
    (Table VI: "RTS" over TCP; Table VII: "ACK" without RTS/CTS, "CTS" or
    "CTS"+"ACK" with it).  ``data_fer`` sets both links' data frame error
    rate and ``clamp_cw`` clamps S1's CW_max toward R1 (Table IX: fake ACKs
    only pay off when losses would escalate backoff).  Returns each
    receiver's goodput as ``R1``/``R2``."""
    frames = frozenset(_frames(inflate_frames))
    s = Scenario(phy=dot11a(6.0), seed=seed, rts_enabled=bool(rts))
    s.add_wireless_node("S1")
    s.add_wireless_node("S2")
    greedy = GreedyConfig.nav_inflator(float(MAX_NAV_US), frames) if frames else None
    s.add_wireless_node("R1", greedy=greedy)
    s.add_wireless_node("R2")
    if data_fer is not None:
        s.error_model.set_data_fer("S1", "R1", data_fer)
        s.error_model.set_data_fer("S2", "R2", data_fer)
    if clamp_cw:
        s.macs["S1"].cw_max_to["R1"] = s.phy.cw_min
    (r1, r2), _ = _start_flows(s, [("S1", "R1"), ("S2", "R2")], transport)
    return BuiltScenario(s, lambda us: {
        "R1": r1.goodput_mbps(us),
        "R2": r2.goodput_mbps(us),
    })


@family("testbed_shared_sender")
def testbed_shared_sender(
    seed: int, duration_s: float, no_retransmit_to_r2: bool = False
) -> BuiltScenario:
    """Table VIII: one sender S, TCP flows to R1 and R2, no RTS/CTS.

    ``no_retransmit_to_r2`` disables S's MAC retransmissions toward R2, what
    a perfect ACK spoofer achieves on R1's behalf: R1 plays the greedy
    receiver, R2 the victim.  Returns each receiver's goodput as
    ``R1``/``R2``."""
    s = Scenario(phy=dot11a(6.0), seed=seed, rts_enabled=False)
    s.add_wireless_node("S")
    s.add_wireless_node("R1")
    s.add_wireless_node("R2")
    if no_retransmit_to_r2:
        s.macs["S"].no_retransmit_to.add("R2")
    (r1, r2), _ = _start_flows(s, [("S", "R1"), ("S", "R2")], "tcp")
    return BuiltScenario(s, lambda us: {
        "R1": r1.goodput_mbps(us),
        "R2": r2.goodput_mbps(us),
    })


# ------------------------------------------------- Section IX extensions ----


@family("sender_baseline")
def sender_baseline(seed: int, duration_s: float, attack: str = "none") -> BuiltScenario:
    """Two UDP pairs, pair 1 attacking its honest competitor: ``attack`` is
    "none", "greedy-receiver" (R1 inflates its CTS NAV by 10 ms) or
    "selfish-sender" (S1 cheats with CW bounds at 1/8 of the standard)."""
    if attack not in ("none", "greedy-receiver", "selfish-sender"):
        raise ValueError(f"unknown attack {attack!r}")
    s = Scenario(seed=seed)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    greedy = None
    if attack == "greedy-receiver":
        greedy = GreedyConfig.nav_inflator(10_000.0, {FrameKind.CTS})
    s.add_wireless_node("R1", greedy=greedy)
    if attack == "selfish-sender":
        make_selfish(s.macs["S1"], SelfishSenderConfig(cw_factor=0.125))
    (victim, attacker), _ = _start_flows(s, [("S0", "R0"), ("S1", "R1")])

    def metrics(us: float) -> dict[str, float]:
        v, a = victim.goodput_mbps(us), attacker.goodput_mbps(us)
        return {
            "goodput_victim": v,
            "goodput_attacker": a,
            "attacker_share": a / max(v + a, 1e-9),
        }

    return BuiltScenario(s, metrics)


#: Per-rate BER profile of a mid-quality link: clean at low rates, marginal
#: at 5.5 Mbps, bad at 11 Mbps.  (Error-model BERs are per byte-unit.)
MARGINAL_LINK = {1.0: 0.0, 2.0: 1e-5, 5.5: 2e-4, 11.0: 1.5e-3}


@family("fake_ack_autorate")
def fake_ack_autorate(
    seed: int, duration_s: float, greedy: bool = False, autorate: bool = False
) -> BuiltScenario:
    """Fake ACKs under rate adaptation: pairs S0->R0 and S1->R1 on
    :data:`MARGINAL_LINK` links, R1 fake-ACKing when ``greedy``.  Senders
    run ARF when ``autorate``, else sit at 2 Mbps, the best sustainable
    rate for the profile.  ``gs_rate_final`` is S1's final rate toward R1."""
    s = Scenario(phy=dot11b() if autorate else dot11b(2.0), seed=seed, rts_enabled=False)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node("R1", greedy=GreedyConfig.ack_faker() if greedy else None)
    s.error_model.set_rate_profile("S0", "R0", MARGINAL_LINK)
    s.error_model.set_rate_profile("S1", "R1", MARGINAL_LINK)
    if autorate:
        s.enable_autorate(["S0", "S1"])
    (k0, k1), _ = _start_flows(s, [("S0", "R0"), ("S1", "R1")])
    return BuiltScenario(s, lambda us: {
        "goodput_R0": k0.goodput_mbps(us),
        "goodput_R1": k1.goodput_mbps(us),
        "gs_rate_final": (
            s.macs["S1"].rate_controller.rate_for("R1") if autorate else 2.0
        ),
    })


@family("spoof_autorate")
def spoof_autorate(
    seed: int, duration_s: float, spoof: bool = False, autorate: bool = False
) -> BuiltScenario:
    """ACK spoofing under rate adaptation: TCP NS->NR and GS->GR on
    :data:`MARGINAL_LINK` links, GR spoofing NR's ACKs when ``spoof`` (it
    overhears NS's data on its own clean path), so under ARF the victim's
    sender keeps hearing ACKs and never falls back to a rate NR can decode.
    ``ns_rate_final`` is NS's final rate toward NR (2 Mbps when fixed)."""
    s = Scenario(phy=dot11b() if autorate else dot11b(2.0), seed=seed)
    s.add_wireless_node("NS", position=(0.0, 0.0))
    s.add_wireless_node("GS", position=(60.0, 60.0))
    s.add_wireless_node("NR", position=(10.0, 0.0))
    s.add_wireless_node(
        "GR",
        position=(48.0, 20.0),
        greedy=GreedyConfig.ack_spoofer(victims={"NR"}) if spoof else None,
    )
    s.error_model.set_rate_profile("NS", "NR", MARGINAL_LINK)
    s.error_model.set_rate_profile("GS", "GR", MARGINAL_LINK)
    if autorate:
        s.enable_autorate(["NS", "GS"])
    (nr, gr), _ = _start_flows(s, [("NS", "NR"), ("GS", "GR")], "tcp")
    return BuiltScenario(s, lambda us: {
        "goodput_NR": nr.goodput_mbps(us),
        "goodput_GR": gr.goodput_mbps(us),
        "ns_rate_final": (
            s.macs["NS"].rate_controller.rate_for("NR") if autorate else 2.0
        ),
    })


# ------------------------------------------------- beyond-the-paper grid ----


@family("nav_ber_grc")
def nav_ber_grc(
    seed: int,
    duration_s: float,
    nav_inflation_us: float = 0.0,
    ber: float = 0.0,
    grc: bool = False,
    transport: str = "udp",
    phy: str | None = None,
    n_pairs: int = 2,
) -> BuiltScenario:
    """Beyond the paper: NAV inflation under link bit errors, with the GRC
    NAV validator optionally armed on the honest stations.

    The paper evaluates NAV inflation on clean channels and its GRC defense
    over distance; this grid crosses the attack with channel quality to ask
    where link noise starts masking (or amplifying) the misbehavior and
    whether the defense still restores fairness.
    """
    s = Scenario(phy=resolve_phy(phy) or dot11b(), seed=seed)
    greedy = (
        GreedyConfig.nav_inflator(float(nav_inflation_us), frozenset({FrameKind.CTS}))
        if nav_inflation_us > 0
        else None
    )
    names = [f"S{i}" for i in range(n_pairs)] + [f"R{i}" for i in range(n_pairs)]
    for name in names:  # the last receiver is the greedy one
        s.add_wireless_node(name, greedy=greedy if name == names[-1] else None)
    if ber > 0:
        set_ber_all_pairs(s.error_model, names, float(ber))
    if grc:
        s.enable_nav_validation(names if greedy is None else names[:-1])
    sinks, _ = _start_flows(
        s, [(f"S{i}", f"R{i}") for i in range(n_pairs)], transport
    )

    def metrics(us: float) -> dict[str, float]:
        out = {f"goodput_R{i}": sink.goodput_mbps(us) for i, sink in enumerate(sinks)}
        out["nav_detections"] = float(s.report.count("nav"))
        return out

    return BuiltScenario(s, metrics)


@family("bursty_nav")
def bursty_nav(
    seed: int,
    duration_s: float,
    nav_inflation_us: float = 0.0,
    p_good_to_bad: float = 0.0,
    p_bad_to_good: float = 1.0,
    fer_good: float = 0.0,
    fer_bad: float = 0.0,
) -> BuiltScenario:
    """Beyond the paper: two pairs, R1's receiver greedy (NAV inflation)
    when ``nav_inflation_us > 0``, over a Gilbert–Elliott bursty channel
    (repro.faults).  All-zero FERs skip fault installation entirely (the
    clean baseline)."""
    s = Scenario(seed=seed)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    greedy = None
    if nav_inflation_us > 0:
        greedy = GreedyConfig.nav_inflator(float(nav_inflation_us))
    s.add_wireless_node("R1", greedy=greedy)
    if fer_good > 0 or fer_bad > 0:
        s.install_faults(
            FaultPlan(
                channel=GilbertElliottConfig(
                    p_good_to_bad=p_good_to_bad,
                    p_bad_to_good=p_bad_to_good,
                    fer_good=fer_good,
                    fer_bad=fer_bad,
                )
            )
        )
    (k0, k1), _ = _start_flows(s, [("S0", "R0"), ("S1", "R1")])

    def metrics(us: float) -> dict[str, float]:
        out = {
            "goodput_R0": k0.goodput_mbps(us),
            "goodput_R1": k1.goodput_mbps(us),
            "corrupted_frames": 0.0,
        }
        if s.fault_injector is not None:
            out["corrupted_frames"] = float(
                s.fault_injector.counters().get("channel_corrupted_frames", 0)
            )
        return out

    return BuiltScenario(s, metrics)


#: Honest UDP pairs contending beside the RTS flooder.
RTS_FLOOD_PAIRS = 2

#: Flood period giving ~window_us/period_us = 10 flood RTS per window —
#: squarely between the low and high ends of ``ext_rts_roc``'s threshold
#: sweep.
FLOOD_PERIOD_US = 10_000.0


@family("rts_flood_roc")
def rts_flood_roc(
    seed: int,
    duration_s: float,
    threshold: int = 12,
    flood: bool = True,
    period_us: float = FLOOD_PERIOD_US,
    nav_us: float = 30_000.0,
    window_us: float = 100_000.0,
) -> BuiltScenario:
    """Attack zoo: one operating point of the RTS-flood attacker vs the
    streaming unanswered-RTS detector — honest UDP pairs, optional flooder,
    live detector (repro.faults + repro.core.detection.streaming).

    Returns whether the flooder was flagged, how many honest senders were,
    the raw detection count and the victims' total goodput (the DoS the
    attack actually causes).
    """
    s = Scenario(seed=seed)
    for i in range(RTS_FLOOD_PAIRS):
        s.add_wireless_node(f"S{i}")
    for i in range(RTS_FLOOD_PAIRS):
        s.add_wireless_node(f"R{i}")
    pipeline = s.attach_streaming_detection(
        StreamingDetectionPipeline(
            [
                StreamingRtsFloodDetector(
                    threshold=int(threshold), window_us=float(window_us)
                )
            ]
        )
    )
    if flood:
        s.install_faults(
            FaultPlan(
                rts_flood=RtsFloodConfig(
                    period_us=float(period_us), nav_us=float(nav_us)
                )
            )
        )
    sinks, _ = _start_flows(s, [(f"S{i}", f"R{i}") for i in range(RTS_FLOOD_PAIRS)])

    def metrics(us: float) -> dict[str, float]:
        offenders = pipeline.report.offenders("rts-flood")
        flooder_name = RtsFloodConfig().name
        honest_flagged = sum(
            1 for i in range(RTS_FLOOD_PAIRS) if offenders.get(f"S{i}", 0) > 0
        )
        return {
            "flooder_flagged": 1.0 if offenders.get(flooder_name, 0) > 0 else 0.0,
            "honest_flagged": float(honest_flagged),
            "detections": float(pipeline.report.count("rts-flood")),
            "goodput_total": sum(sink.goodput_mbps(us) for sink in sinks),
        }

    return BuiltScenario(s, metrics)


#: Jam burst cadence; the duty cycle scales the burst length within it.
JAM_PERIOD_US = 20_000.0


@family("jammer_crash")
def jammer_crash(
    seed: int,
    duration_s: float,
    duty_pct: float = 0.0,
    crash: bool = False,
    jitter_us: float = 1_000.0,
) -> BuiltScenario:
    """Beyond the paper: two UDP pairs; a periodic jammer at ``duty_pct``%
    airtime; optionally S0 crashes at 40% of the run and reboots 20% later
    (repro.faults)."""
    s = Scenario(seed=seed, rts_enabled=False)
    s.add_wireless_node("S0")
    s.add_wireless_node("S1")
    s.add_wireless_node("R0")
    s.add_wireless_node("R1")
    jammer = None
    if duty_pct > 0:
        jammer = JammerConfig(
            period_us=JAM_PERIOD_US,
            burst_us=JAM_PERIOD_US * duty_pct / 100.0,
            jitter_us=jitter_us,
        )
    crashes = ()
    if crash:
        crashes = (
            CrashConfig("S0", at_s=duration_s * 0.4, reboot_after_s=duration_s * 0.2),
        )
    plan = FaultPlan(jammer=jammer, crashes=crashes)
    if not plan.empty:
        s.install_faults(plan)
    (k0, k1), _ = _start_flows(s, [("S0", "R0"), ("S1", "R1")])

    def metrics(us: float) -> dict[str, float]:
        out = {
            "goodput_R0": k0.goodput_mbps(us),
            "goodput_R1": k1.goodput_mbps(us),
            "jam_bursts": 0.0,
            "s0_crash_dropped": float(s.macs["S0"].stats.crash_dropped_msdus),
        }
        if s.fault_injector is not None:
            out["jam_bursts"] = float(s.fault_injector.counters().get("jammer_bursts", 0))
        return out

    return BuiltScenario(s, metrics)


@family("hidden_node")
def hidden_node(
    seed: int,
    duration_s: float,
    rts: bool = False,
    channel: str | None = "sinr",
    phy: PhyParams | str | None = "dot11a",
    packet_size: int = 1024,
) -> BuiltScenario:
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
        rts_enabled=bool(rts),
        channel=ChannelConfig(model=channel, ranges=(55.0, 99.0)),
    )
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("AP", position=(54.0, 0.0))
    s.add_wireless_node("S1", position=(108.0, 0.0))
    sinks, _ = _start_flows(
        s, [("S0", "AP"), ("S1", "AP")], packet_size=int(packet_size)
    )

    def metrics(us: float) -> dict[str, float]:
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

    return BuiltScenario(s, metrics)


@family("dense_hotspot_sinr")
def dense_hotspot_sinr(
    seed: int,
    duration_s: float,
    channel: str | None = "sinr",
    cells: int = 24,
    clients: int = 4,
    spacing_m: float = 72.0,
) -> BuiltScenario:
    """A square grid of hotspot cells, one AP + ``clients`` uplink clients
    each, with the paper's 55 m communication / 99 m interference ranges
    (Figure 23).  Cell 0's AP inflates the NAV of its MAC ACKs (the no-RTS
    variant of the paper's receiver misbehavior), keeping the greedy
    machinery on the timed path.  The spacing decides what the grid
    stresses:

    * 72 m (the defaults, 24 cells on the SINR medium): the cells overlap.
      Adjacent cells carrier-sense each other while diagonal and more
      distant cells (>= 101 m) stay mutually hidden, so uplink frames arrive
      at each AP with live interference from transmitters one to two cells
      away.  Those interferers sit in the band where a single pairwise power
      ratio still clears the 10x capture threshold but the *aggregate*
      interference sum does not clear the per-rate SINR margin — the regime
      where the two channel models genuinely diverge (measurably different
      per-cell goodput for equal seeds).
    * 250 m (the ``dense_hotspot`` perf scenario, 48 cells, ambient
      channel): the cells are isolated, so each sender has every other radio
      in the grid but only the ones in its own cell can hear it.  The
      medium's hearer lists filter those once per sender (a grid lookup, a
      distance prune, then the exact carrier-sense threshold), so per-frame
      fan-out stays at the cell size and the one-time build looks at each
      sender's own cell only — the dense-deployment stress on the medium.

    ``channel`` is a plain model name (None inherits the ambient selection)
    so campaign job specs stay cache-addressable.
    """
    s = Scenario(
        seed=seed,
        rts_enabled=False,
        channel=ChannelConfig(model=channel, ranges=(55.0, 99.0)),
    )
    cells, clients, spacing_m = int(cells), int(clients), float(spacing_m)
    uplinks = []
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
            uplinks.append((name, ap))
    sinks, _ = _start_flows(s, uplinks, rate_bps=1.2e6, packet_size=400)

    def metrics(us: float) -> dict[str, float]:
        goodputs = [sink.goodput_mbps(us) for sink in sinks]
        return {
            "goodput_total": sum(goodputs),
            "goodput_cell0": sum(goodputs[:clients]),
            "goodput_min": min(goodputs),
        }

    return BuiltScenario(s, metrics)


@register("chaos_sleeper")
def chaos_sleeper(
    seed: int,
    duration_s: float,
    work_s: float = 0.0,
    point: int = 0,
) -> dict[str, float]:
    """Chaos-harness workload: deterministic toy metrics, no simulator.

    Metrics are a pure function of ``(seed, point)``, so a retried job
    reproduces them bit-identically; ``work_s`` sleeps to widen the window
    fault injectors aim at (``duration_s`` is accepted but unused).  If the
    ``REPRO_CHAOS_HANG_ONCE`` environment variable names a directory, the
    *first* attempt of each job parks forever after dropping a flag file, so
    the pool watchdog must kill the worker; the retry finds the flag and
    completes normally.
    """
    import os
    import random
    import time
    from pathlib import Path

    hang_dir = os.environ.get("REPRO_CHAOS_HANG_ONCE", "")
    if hang_dir:
        flag = Path(hang_dir) / f"hang-{point}-{seed}.flag"
        try:
            flag.touch(exist_ok=False)
        except FileExistsError:
            pass
        else:
            time.sleep(3600.0)
    if work_s > 0:
        time.sleep(float(work_s))
    rng = random.Random(f"chaos:{point}:{seed}")
    return {
        "metric_sum": float(seed * 100 + point),
        "metric_noise": round(rng.random(), 9),
    }
