"""Broadcast wireless medium with ranges, capture effect, and corruption.

Every attached :class:`Radio` hears every transmission whose received power
exceeds its carrier-sense threshold; it can *decode* a frame when the power
also exceeds the reception threshold.  A radio locks onto the first decodable
frame (it cannot re-synchronize mid-frame); overlapping arrivals either
corrupt the locked frame or — when one signal is stronger by the capture
threshold — are resolved by capture, exactly the semantics the paper relies on
for ACK spoofing (Section IV-B).

Corrupted frames are *delivered* to the MAC with a ``corrupted`` flag (and a
model of whether the MAC address fields survived, per the paper's Table I)
instead of being silently dropped, so that fake-ACK misbehavior and EIFS
deferral can react to them.  The radio that decoded a frame delivers it
itself, when the frame's airtime ends (:meth:`Radio._on_tx_end`).

Radios have a fixed layout (``__slots__``): every hearer callback reads
several of their attributes.  The medium keeps its instance dict, because
the frame tracer and the detection tap wrap ``medium.transmit`` on one
instance.

Equal-delay hearer groups.  Hearers at one spot, or on a ring around the
sender, receive its frames at the same float time.  Each link-table row
partitions the sender's hearers by their exact delay, and a frame pushes
one start and one end entry per group (:class:`_HearerGroup`), not per
hearer; the start entry carries the row's own ``rss`` and ``decodable``
columns.  The events fire as one entry per hearer would, with the hearers
numbered in group order (by first member, then attach order), for every
airtime and every clock:

* ``Simulator.call_fanout`` numbers a frame's entries in three blocks: the
  sender's end, then every start in list order, then every end in list
  order.  Per hearer, a group's members would take consecutive seqs among
  the frame's starts, and again among its ends, all at the group's time.
* Every entry pushed before the frame has a lower seq, and every later
  push, a member's own included, a higher one.  So nothing would pop
  between the members, and one entry with the first member's key fires
  them in their order.
* A group's callbacks add the members beyond the first to
  ``Simulator.grouped_events``, so ``events_processed`` is unchanged.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Any, Callable, Optional

from repro.phy.error import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import (
    SPEED_OF_LIGHT_M_PER_US,
    PathLossModel,
    rss_to_db,
)
from repro.sim.engine import Simulator

#: Table I of the paper: fraction of corrupted frames whose destination MAC
#: address survives, and — among those — whose source address also survives.
ADDRESS_SURVIVAL = {
    "802.11b": (1351 / 1367, 1282 / 1351),
    "802.11a": (6197 / 7376, 5663 / 6197),
}

#: Relative slack on the carrier-sense range in the hearer-list distance
#: prune — far above pow/hypot rounding, far below any topology's geometry.
_PRUNE_SLACK = 1e-6


#: Layouts whose link tables :func:`link_table` keeps, least recently used
#: first out.  A fixed bound: the memo holds at most this many topologies'
#: hearer geometry, whatever runs in the process.
LINK_TABLE_LAYOUTS = 8


def _sense_limit(
    pathloss: PathLossModel, cs_threshold: float, tx_power: float
) -> float:
    """Distance beyond which nothing sent at ``tx_power`` is sensed.

    The slack absorbs rounding in the range's pow and in the distance, so
    the hearer-list prune never drops a hearer (``tests/test_medium.py``
    pins this at the boundary).
    """
    if cs_threshold <= 0:
        return math.inf
    limit = pathloss.range_for_threshold(tx_power, cs_threshold)
    return limit * (1.0 + _PRUNE_SLACK)


class LinkTable:
    """The hearer geometry of one layout, shared by every medium with it.

    ``row(i)`` is sender attach index ``i``'s hearers, every receiver index
    inside carrier-sense range, partitioned by the exact ``delay`` float: a
    tuple of one ``(delay, receivers, rss, decodable)`` group per distinct
    delay, ordered by first member, with its members' columns (tuples, so
    every medium of the layout can bind them as they are) in attach order.

    A row is built on first use and kept.  Finding it looks only at the
    radios in the grid cells the sender's reach touches, so building every
    row costs O(radios x hearers).  The grid is uniform, of square cells:
    ``edge`` is half the widest carrier-sense reach, and ``cells`` maps a
    cell to the attach indices in it.  With no ranges the edge is infinite
    and one cell holds every radio.

    It holds numbers only, never a radio or a bound method, so keeping it
    keeps no topology alive.  Two threads that build one row at once build
    equal tuples, and the last store wins.
    """

    __slots__ = (
        "pathloss",
        "cs_threshold",
        "rx_threshold",
        "propagation_delay",
        "layout",
        "edge",
        "cells",
        "_rows",
    )

    def __init__(
        self,
        pathloss: PathLossModel,
        cs_threshold: float,
        rx_threshold: float,
        propagation_delay: bool,
        layout: tuple[tuple[float, float, float], ...],
    ) -> None:
        self.pathloss = pathloss
        self.cs_threshold = cs_threshold
        self.rx_threshold = rx_threshold
        self.propagation_delay = propagation_delay
        self.layout = layout
        widest = max(
            (_sense_limit(pathloss, cs_threshold, p) for _x, _y, p in layout),
            default=0.0,
        )
        edge = widest / 2 if 0.0 < widest < math.inf else math.inf
        cells: dict[tuple[int, int], list[int]] = {}
        for index, (x, y, _p) in enumerate(layout):
            cell = (math.floor(x / edge), math.floor(y / edge))
            cells.setdefault(cell, []).append(index)
        self.edge = edge
        self.cells = cells
        self._rows: list[tuple | None] = [None] * len(layout)

    def row(self, sender: int) -> tuple:
        """Sender ``sender``'s row; see the class docstring."""
        row = self._rows[sender]
        if row is None:
            row = self._rows[sender] = self._build_row(sender)
        return row

    def _build_row(self, sender: int) -> tuple:
        cs_threshold = self.cs_threshold
        rx_threshold = self.rx_threshold
        rss_fn = self.pathloss.rss
        delayed = self.propagation_delay
        layout = self.layout
        x, y, tx_power = layout[sender]
        # Candidates: the radios in the cells within ``reach`` of the sender's
        # cell, back in attach order.  No radio within the limit lies further
        # away than that, and no sender's limit spans more than two cell
        # edges, so at most 5x5 cells are visited.
        limit = _sense_limit(self.pathloss, cs_threshold, tx_power)
        edge, cells = self.edge, self.cells
        reach = math.ceil(limit / edge) if edge < math.inf else 0
        cx = math.floor(x / edge)
        cy = math.floor(y / edge)
        candidates = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                cell = cells.get((gx, gy))
                if cell is not None:
                    candidates.extend(cell)
        candidates.sort()
        # Cheap prune ahead of the exact rule: no receiver beyond the limit
        # can reach ``cs_threshold``.
        limit_sq = limit**2
        hypot = math.hypot
        # delay -> (delay, receivers, rss, decodable): the groups, in
        # first-member order, each one's columns in attach order.
        groups: dict[float, tuple] = {}
        for index in candidates:
            if index == sender:
                continue
            rx, ry, _p = layout[index]
            dx = rx - x
            dy = ry - y
            if dx * dx + dy * dy > limit_sq:
                continue
            # ``distance((x, y), (rx, ry))`` exactly: hypot ignores signs.
            d = hypot(dx, dy)
            rss = rss_fn(tx_power, d)
            if rss < cs_threshold:
                continue  # out of interference range: hears nothing
            delay = d / SPEED_OF_LIGHT_M_PER_US if delayed else 0.0
            group = groups.get(delay)
            if group is None:
                groups[delay] = (delay, [index], [rss], [rss >= rx_threshold])
            else:
                group[1].append(index)
                group[2].append(rss)
                group[3].append(rss >= rx_threshold)
        return tuple(
            (d, tuple(r), tuple(p), tuple(f)) for d, r, p, f in groups.values()
        )


@functools.lru_cache(maxsize=LINK_TABLE_LAYOUTS)
def link_table(
    pathloss: PathLossModel,
    cs_threshold: float,
    rx_threshold: float,
    propagation_delay: bool,
    layout: tuple[tuple[float, float, float], ...],
) -> LinkTable:
    """The :class:`LinkTable` of one layout, memoized process-wide.

    ``layout`` is ``((x, y, tx_power), ...)`` in attach order.  Every seed
    of a topology has the same layout, so its media share one table and
    only bind their radios' callbacks to it (``Medium._hearers_from``).  A
    hit is bit-exact: the table is a pure function of the key, computed by
    the same float operations a miss runs.  The cache is thread-safe.
    """
    return LinkTable(pathloss, cs_threshold, rx_threshold, propagation_delay, layout)


class _Transmission:
    """One frame in flight."""

    __slots__ = ("sender", "frame", "start", "end")

    def __init__(self, sender: "Radio", frame: Any, start: float, end: float):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end


class _HearerGroup:
    """Hearers of one sender that its frames reach at the same instant.

    One heap entry each way stands for the group (``Medium.transmit``):
    :meth:`start` zips the members' ``_on_tx_start`` with the link-table
    row's ``rss`` and ``decodable`` columns its entry carries, and
    :meth:`stop` runs each member's ``_on_tx_end``, in attach order; each
    adds the members beyond the first to ``Simulator.grouped_events``, so
    ``events_processed`` still counts one event per member callback.
    """

    __slots__ = ("on_starts", "on_ends", "sim", "extra")

    def __init__(self, sim: Simulator, on_starts: list, on_ends: list) -> None:
        self.on_starts = on_starts
        self.on_ends = on_ends
        self.sim = sim
        self.extra = len(on_ends) - 1

    def start(self, tx: _Transmission, rss: tuple, decodable: tuple) -> None:
        for on_tx_start, power, flag in zip(self.on_starts, rss, decodable):
            on_tx_start(tx, power, flag)
        self.sim.grouped_events += self.extra

    def stop(self, tx: _Transmission) -> None:
        for on_tx_end in self.on_ends:
            on_tx_end(tx)
        self.sim.grouped_events += self.extra


class Radio:
    """A half-duplex radio attached to one :class:`Medium`.

    The owning MAC registers itself as ``radio.mac`` and must provide
    ``phy_busy()``, ``phy_idle()``, ``phy_tx_done()`` and
    ``phy_receive(frame, corrupted, addr_ok, rssi_db)``.

    A MAC may also keep two plain attributes of the radio current, to spare
    the calls that would return at once: while ``wants_busy`` is False the
    radio skips ``phy_busy()`` on a busy edge, and while ``wants_idle`` is
    False it skips ``phy_idle()`` on an idle edge.  Both start True, so a
    MAC that publishes nothing gets every edge.  A MAC that publishes must
    set a flag True before the matching edge could change anything (True
    only costs a call; a stale False loses an edge).
    """

    __slots__ = (
        "medium",
        "name",
        "index",
        "position",
        "tx_power",
        "mac",
        "transmitting",
        "_tx_end_time",
        "wants_busy",
        "wants_idle",
        "_energy",
        "_lock_tx",
        "_lock_rss",
        "_lock_collided",
        # Weakly referenceable, so a dropped topology can be watched dying.
        "__weakref__",
    )

    def __init__(
        self,
        medium: "Medium",
        name: str,
        position: tuple[float, float] = (0.0, 0.0),
        tx_power: float = 1.0,
    ) -> None:
        self.medium = medium
        self.name = name
        #: Attach order on the medium, set by ``Medium._attach``.
        self.index = -1
        self.position = position
        self.tx_power = tx_power
        self.mac: Any = None
        self.transmitting = False
        self._tx_end_time = 0.0
        #: Edge filter the MAC keeps current; see the class docstring.
        self.wants_busy = True
        self.wants_idle = True
        # Received power of every audible in-flight transmission, in arrival
        # order: the carrier is busy while it is non-empty, and SinrRadio
        # sums it (left to right, so deterministically) for interference.
        self._energy: dict[_Transmission, float] = {}
        # Reception lock: the transmission being decoded (None when not
        # locked), its received power, and whether an overlap garbled it.
        self._lock_tx: Optional[_Transmission] = None
        self._lock_rss = 0.0
        self._lock_collided = False
        medium._attach(self)

    def _unlink(self) -> None:
        """Drop the links back to the medium and the MAC.

        In-flight transmissions point at their senders, so ``_energy`` ties
        radios into cycles with each other too.
        """
        self.medium = None
        self.mac = None
        self._energy.clear()

    # -- transmit path -----------------------------------------------------

    def transmit(self, frame: Any, duration: float) -> None:
        """Put ``frame`` on the air for ``duration`` microseconds."""
        self.medium.transmit(self, frame, duration)

    # -- carrier sense -----------------------------------------------------

    @property
    def carrier_busy(self) -> bool:
        """Physical carrier sense: energy above threshold or self-transmit."""
        return self.transmitting or bool(self._energy)

    # -- medium callbacks ----------------------------------------------------

    def _on_tx_start(self, tx: _Transmission, rss: float, decodable: bool) -> None:
        was_idle = not (self.transmitting or self._energy)
        self._energy[tx] = rss
        if not self.transmitting:
            if self._lock_tx is None:
                if decodable:
                    self._lock_tx = tx
                    self._lock_rss = rss
                    self._lock_collided = False
            elif decodable:
                self._resolve_overlap(tx, rss)
            elif not self.medium._captures(self._lock_rss, rss):
                # Sub-decodable interference still corrupts an ongoing
                # reception unless the locked signal captures it.
                self._lock_collided = True
        # Energy was just added, so the carrier is now busy: a busy edge
        # happened exactly when it was idle before.
        if was_idle and self.wants_busy and self.mac is not None:
            self.mac.phy_busy()

    def _resolve_overlap(self, tx: _Transmission, rss: float) -> None:
        captures = self.medium._captures
        if captures(self._lock_rss, rss):
            return  # locked frame is strong enough to survive untouched
        if captures(rss, self._lock_rss):
            self._lock_tx = tx  # newcomer captures the receiver
            self._lock_rss = rss
            self._lock_collided = False
            return
        self._lock_collided = True  # comparable power: garbles the locked frame

    def _on_tx_end(self, tx: _Transmission) -> None:
        del self._energy[tx]
        if self._lock_tx is tx:
            # The frame this radio decoded ends here: deliver it.  The rolls
            # draw from the medium's stream in a fixed order — corruption,
            # then the two address-survival uniforms — ahead of the fault
            # hook, the telemetry counters and the RSSI jitter.
            self._lock_tx = None
            medium = self.medium
            frame = tx.frame
            collided = corrupted = self._lock_collided
            error_model = medium.error_model
            if not collided and not error_model.trivial:
                # ``kind._name_`` is the enum's plain attribute behind ``name``.
                corrupted = error_model.is_corrupted(
                    tx.sender.name,
                    self.name,
                    frame.size_bytes,
                    frame.kind._name_ == "DATA",
                    medium.rng,
                    rate=getattr(frame, "rate", None),
                )
            addr_ok = True
            if corrupted:
                draw = medium.rng.random
                addr_ok = (
                    draw() < medium.addr_dst_survival
                    and draw() < medium.addr_src_survival
                )
            faults = medium.faults
            if faults is not None:
                corrupted, addr_ok = faults.on_deliver(
                    tx, self, frame, corrupted, addr_ok
                )
            obs = medium.obs
            if obs is not None:
                name = self.name
                obs.inc(f"phy.{name}.rx_frames")
                if corrupted:
                    obs.inc(f"phy.{name}.rx_corrupted")
                    if collided:
                        obs.inc(f"phy.{name}.rx_collisions")
                    else:
                        obs.inc(f"phy.{name}.rx_fer_drops")
            lock_rss = self._lock_rss
            rssi_db = medium._rss_db.get(lock_rss)
            if rssi_db is None:
                rssi_db = medium._rss_db[lock_rss] = rss_to_db(lock_rss)
            if medium.rssi_jitter is not None:
                rssi_db += medium.rssi_jitter(medium.rng)
            if self.mac is not None:
                self.mac.phy_receive(frame, corrupted, addr_ok, rssi_db)
        # ``tx`` was on the air until now, so the carrier was busy: an idle
        # edge happened exactly when no energy is left without it.
        if (
            not (self.transmitting or self._energy)
            and self.wants_idle
            and self.mac is not None
        ):
            self.mac.phy_idle()

    def _begin_transmit(self, end_time: float) -> None:
        was_idle = not (self.transmitting or self._energy)
        self.transmitting = True
        self._tx_end_time = end_time
        self._lock_tx = None  # half duplex: any reception in progress is lost
        if was_idle and self.wants_busy and self.mac is not None:
            self.mac.phy_busy()

    def _end_transmit(self) -> None:
        self.transmitting = False
        mac = self.mac
        if mac is not None:
            # We were transmitting until this instant: idle edge unless
            # other energy is still on the air.
            if not self._energy and self.wants_idle:
                mac.phy_idle()
            mac.phy_tx_done()


class Medium:
    """The shared broadcast channel."""

    #: Radio flavor attached by :meth:`repro.net.scenario.Scenario.add_wireless_node`
    #: — SINR media override this with :class:`SinrRadio`.
    radio_class: type[Radio] = Radio

    def __init__(
        self,
        sim: Simulator,
        phy: PhyParams,
        rng: random.Random,
        error_model: BitErrorModel | None = None,
        pathloss: PathLossModel | None = None,
        capture_enabled: bool = True,
        propagation_delay: bool = True,
        rssi_jitter: Callable[[random.Random], float] | None = None,
    ) -> None:
        self.sim = sim
        self.phy = phy
        self.rng = rng
        self.error_model = error_model or BitErrorModel()
        self.pathloss = pathloss or PathLossModel()
        self.capture_enabled = capture_enabled
        self.propagation_delay = propagation_delay
        self.rssi_jitter = rssi_jitter
        self.radios: list[Radio] = []
        # With no explicit ranges every node hears and decodes everyone.
        self.rx_threshold: float = 0.0
        self.cs_threshold: float = 0.0
        p_dst, p_src = ADDRESS_SURVIVAL.get(phy.name, (1.0, 1.0))
        self.addr_dst_survival = p_dst
        self.addr_src_survival = p_src
        self.frames_sent = 0
        #: Telemetry registry (:mod:`repro.obs`) or None.  Hooks are guarded
        #: with ``is not None`` so a telemetry-off run takes the exact
        #: pre-instrumentation path (golden traces stay byte-identical).
        self.obs: Any = None
        #: Channel fault injector (:class:`repro.faults.FaultInjector`) or
        #: None.  Same zero-cost discipline as ``obs``: the delivery hook is
        #: ``is not None`` guarded and fault models draw only from their own
        #: dedicated RNG streams, so a fault-free run is byte-identical.
        self.faults: Any = None
        self._names: set[str] = set()
        # Each radio's _on_tx_start and _on_tx_end, in attach order: bound
        # once, shared by every hearer list the radio appears in.
        self._on_starts: list[Callable] = []
        self._on_ends: list[Callable] = []
        # sender -> its hearer list: per equal-delay group of hearers inside
        # carrier-sense range, a lone hearer's ``(on_tx_start, on_tx_end,
        # rss, delay, decodable)`` or a group's ``(start, stop, rss, delay,
        # decodable)`` over the row's columns.  Bound on the sender's first
        # frame from its row of ``_links``; rebound only after the topology
        # (``_attach``) or the thresholds (``configure_ranges``) change.
        self._hearers: dict[Radio, list[tuple]] = {}
        # This layout's process-wide LinkTable (``link_table``), looked up
        # with the first hearer list and dropped with ``_hearers``.
        self._links: LinkTable | None = None
        # rss (linear) -> dB, memoized: each link contributes one value.
        self._rss_db: dict[float, float] = {}

    # -- topology ------------------------------------------------------------

    def _attach(self, radio: Radio) -> None:
        if radio.name in self._names:
            raise ValueError(f"duplicate radio name: {radio.name}")
        self._names.add(radio.name)
        radio.index = len(self.radios)
        self.radios.append(radio)
        self._on_starts.append(radio._on_tx_start)
        self._on_ends.append(radio._on_tx_end)
        # Topology changed: look the layout up again and rebind every list.
        self._hearers.clear()
        self._links = None

    def configure_ranges(
        self, comm_range_m: float, interference_range_m: float, tx_power: float = 1.0
    ) -> None:
        """Derive thresholds so nodes decode within ``comm_range_m`` and sense
        (and collide) within ``interference_range_m`` — e.g. the paper's
        Figure 23 topology uses 55 m and 99 m."""
        if interference_range_m < comm_range_m:
            raise ValueError("interference range must be >= communication range")
        self.rx_threshold = self.pathloss.threshold_for_range(tx_power, comm_range_m)
        self.cs_threshold = self.pathloss.threshold_for_range(
            tx_power, interference_range_m
        )
        self._hearers.clear()
        self._links = None

    def _captures(self, strong: float, weak: float) -> bool:
        if not self.capture_enabled:
            return False
        if weak <= 0:
            return True
        return strong / weak >= self.phy.capture_threshold

    def _unlink(self) -> None:
        """Break every cycle through the medium, for an owner going away.

        Unlinks each radio and removes an instance ``transmit`` wrap
        (:class:`~repro.stats.trace.FrameTracer`, the detection tap), whose
        owner points back at the medium.  ``radios`` and ``frames_sent``
        stay readable.
        """
        self.__dict__.pop("transmit", None)
        for radio in self.radios:
            radio._unlink()

    # -- transmission ----------------------------------------------------------

    def _layout_links(self) -> LinkTable:
        """Look this medium's layout up in :func:`link_table`; see ``_links``."""
        layout = []
        for radio in self.radios:
            x, y = radio.position
            layout.append((float(x), float(y), float(radio.tx_power)))
        self._links = link_table(
            self.pathloss,
            float(self.cs_threshold),
            float(self.rx_threshold),
            bool(self.propagation_delay),
            tuple(layout),
        )
        return self._links

    def _hearers_from(self, sender: Radio) -> list[tuple]:
        """Cached hearer list for ``sender``; see ``_hearers`` in ``__init__``."""
        hearers = self._hearers.get(sender)
        if hearers is not None:
            return hearers
        links = self._links or self._layout_links()
        on_starts, on_ends, sim = self._on_starts, self._on_ends, self.sim
        hearers = []
        append = hearers.append
        for delay, receivers, rss, decodable in links.row(sender.index):
            if len(receivers) == 1:
                (r,) = receivers
                append((on_starts[r], on_ends[r], rss[0], delay, decodable[0]))
            else:
                starts = [on_starts[r] for r in receivers]
                group = _HearerGroup(sim, starts, [on_ends[r] for r in receivers])
                append((group.start, group.stop, rss, delay, decodable))
        self._hearers[sender] = hearers
        return hearers

    def transmit(self, sender: Radio, frame: Any, duration: float) -> None:
        """Broadcast ``frame`` from ``sender`` for ``duration`` microseconds."""
        if sender.transmitting:
            raise RuntimeError(f"{sender.name}: already transmitting")
        if not 0.0 < duration < math.inf:  # also catches NaN
            raise ValueError(f"airtime must be positive and finite: {duration}")
        sim = self.sim
        tx = _Transmission(sender, frame, sim.now, sim.now + duration)
        self.frames_sent += 1
        obs = self.obs
        if obs is not None:
            obs.inc(f"phy.{sender.name}.tx_frames")
            obs.inc(f"phy.{sender.name}.tx_airtime_us", duration)
        sender._begin_transmit(tx.end)
        hearers = self._hearers.get(sender)
        if hearers is None:
            hearers = self._hearers_from(sender)
        sim.call_fanout(duration, sender._end_transmit, tx, hearers)


class SinrRadio(Radio):
    """Radio whose reception decisions come from an SINR margin.

    Re-evaluates the locked frame's signal-to-interference-plus-noise ratio
    over the received powers in ``_energy`` whenever an overlapping
    transmission *starts*.  Interference only ever increases at a start and
    decreases at an end, and a radio cannot re-synchronize mid-frame, so a
    frame that clears its margin at every overlap start has held it for its
    whole airtime — no check is needed at transmission end, and the
    ``collided`` flag stays sticky exactly as in the pairwise model.
    """

    __slots__ = ()

    def _on_tx_start(self, tx: _Transmission, rss: float, decodable: bool) -> None:
        was_idle = not (self.transmitting or self._energy)
        self._energy[tx] = rss
        if not self.transmitting:
            medium = self.medium
            lock_tx = self._lock_tx
            if lock_tx is None:
                if decodable and medium._sinr_ok(self, tx, rss):
                    self._lock_tx = tx
                    self._lock_rss = rss
                    self._lock_collided = False
            elif self._lock_collided or not medium._sinr_ok(
                self, lock_tx, self._lock_rss
            ):
                # The locked frame is doomed (already garbled, or the
                # newcomer pushed it below its margin).  The newcomer takes
                # the receiver only if it clears its own margin *including*
                # the doomed frame's power — SINR capture.
                if decodable and medium._sinr_ok(self, tx, rss):
                    self._lock_tx = tx
                    self._lock_rss = rss
                    self._lock_collided = False
                else:
                    self._lock_collided = True
        # Busy edge exactly when the carrier was idle, as in the base class.
        if was_idle and self.wants_busy and self.mac is not None:
            self.mac.phy_busy()


class SinrMedium(Medium):
    """:class:`Medium` with SINR-based reception (``channel model "sinr"``).

    Carrier sense, corruption/FER rolls, address survival, fault hooks and
    delivery are all inherited unchanged — the model only replaces *which
    overlaps corrupt or capture*, via :class:`SinrRadio`.  Golden traces for
    this model live in their own committed set (the pairwise set stays the
    reference; DESIGN.md §15).

    Reception is gated on ``rss >= threshold * (noise_floor + interference)``
    where *interference* is the summed power of every other audible
    transmission at the receiver, and *threshold* is the PHY's per-rate
    margin (:meth:`repro.phy.params.PhyParams.sinr_threshold`).  The
    pairwise ``capture_enabled`` flag is unused here — capture is what the
    SINR comparison itself decides.  Transmissions below the carrier-sense
    threshold are never scheduled at a receiver (same pruning as the
    pairwise model), so they do not contribute interference; the cs
    threshold is the model's interference-accounting floor.
    """

    radio_class = SinrRadio

    def __init__(
        self,
        *args: Any,
        noise_floor: float = 1e-10,
        capture_margin: float | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        #: Linear noise power added to the interference sum.
        self.noise_floor = float(noise_floor)
        #: Base SINR margin; None falls back to ``phy.capture_threshold``.
        self.capture_margin = capture_margin
        # rate -> threshold, resolved once per distinct rate seen.
        self._sinr_thresholds: dict[float, float] = {}

    def _sinr_threshold_for(self, frame: Any) -> float:
        # Control frames fly at the basic rate (their airtime already does);
        # data frames use their explicit rate or the PHY default.
        if frame.kind._name_ == "DATA":
            rate = getattr(frame, "rate", None)
            if rate is None:
                rate = self.phy.data_rate
        else:
            rate = self.phy.basic_rate
        threshold = self._sinr_thresholds.get(rate)
        if threshold is None:
            threshold = self._sinr_thresholds[rate] = self.phy.sinr_threshold(
                rate, self.capture_margin
            )
        return threshold

    def _sinr_ok(self, radio: SinrRadio, tx: _Transmission, rss: float) -> bool:
        """Does ``tx`` clear its SINR margin at ``radio`` right now?

        The multiply form avoids a division, and the left-to-right python
        sum over the insertion-ordered ``_energy`` dict is deterministic
        (``_on_tx_start`` runs in hearer-list, i.e. attach, order).
        """
        interference = 0.0
        for other, power in radio._energy.items():
            if other is not tx:
                interference += power
        return rss >= self._sinr_threshold_for(tx.frame) * (
            self.noise_floor + interference
        )

