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
deferral can react to them.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional

from repro.phy.error import BitErrorModel
from repro.phy.params import PhyParams
from repro.phy.propagation import (
    SPEED_OF_LIGHT_M_PER_US,
    PathLossModel,
    distance,
    rss_to_db,
)
from repro.sim.engine import Simulator
from repro.sim.rng import BatchedUniform

#: Table I of the paper: fraction of corrupted frames whose destination MAC
#: address survives, and — among those — whose source address also survives.
ADDRESS_SURVIVAL = {
    "802.11b": (1351 / 1367, 1282 / 1351),
    "802.11a": (6197 / 7376, 5663 / 6197),
}

#: Relative slack on the carrier-sense range in the hearer-list distance
#: prune — far above pow/hypot rounding, far below any topology's geometry.
_PRUNE_SLACK = 1e-6


class _Transmission:
    """One frame in flight."""

    __slots__ = ("sender", "frame", "start", "end")

    def __init__(self, sender: "Radio", frame: Any, start: float, end: float):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end


class _Lock:
    """Reception lock: the transmission a radio is currently decoding."""

    __slots__ = ("tx", "rss", "collided")

    def __init__(self, tx: _Transmission, rss: float):
        self.tx = tx
        self.rss = rss
        self.collided = False


class Radio:
    """A half-duplex radio attached to one :class:`Medium`.

    The owning MAC registers itself as ``radio.mac`` and must provide
    ``phy_busy()``, ``phy_idle()``, ``phy_tx_done()`` and
    ``phy_receive(frame, corrupted, addr_ok, rssi_db)``.
    """

    def __init__(
        self,
        medium: "Medium",
        name: str,
        position: tuple[float, float] = (0.0, 0.0),
        tx_power: float = 1.0,
    ) -> None:
        self.medium = medium
        self.name = name
        self.position = position
        self.tx_power = tx_power
        self.mac: Any = None
        self.transmitting = False
        self._tx_end_time = 0.0
        self._energy: set[_Transmission] = set()
        self._lock: Optional[_Lock] = None
        medium._attach(self)

    # -- transmit path -----------------------------------------------------

    def transmit(self, frame: Any, duration: float) -> None:
        """Put ``frame`` on the air for ``duration`` microseconds."""
        self.medium.transmit(self, frame, duration)

    # -- carrier sense -----------------------------------------------------

    @property
    def carrier_busy(self) -> bool:
        """Physical carrier sense: energy above threshold or self-transmit."""
        return self.transmitting or bool(self._energy)

    def _notify_if_transition(self, was_busy: bool) -> None:
        # Inline of ``carrier_busy`` — this runs once per frame per radio.
        now_busy = self.transmitting or bool(self._energy)
        if self.mac is None or was_busy == now_busy:
            return
        if now_busy:
            self.mac.phy_busy()
        else:
            self.mac.phy_idle()

    # -- medium callbacks ----------------------------------------------------

    def _on_tx_start(self, tx: _Transmission, rss: float, decodable: bool) -> None:
        was_busy = self.transmitting or bool(self._energy)
        self._energy.add(tx)
        if not self.transmitting and decodable:
            if self._lock is None:
                self._lock = _Lock(tx, rss)
            else:
                self._resolve_overlap(tx, rss)
        elif self._lock is not None and not self.transmitting:
            # Sub-decodable interference still corrupts an ongoing reception
            # unless the locked signal captures it.
            if not self.medium._captures(self._lock.rss, rss):
                self._lock.collided = True
        # Inline notify: energy was just added, so the carrier is now busy —
        # a transition happened exactly when it was idle before.
        if not was_busy and self.mac is not None:
            self.mac.phy_busy()

    def _resolve_overlap(self, tx: _Transmission, rss: float) -> None:
        lock = self._lock
        assert lock is not None
        if self.medium._captures(lock.rss, rss):
            return  # locked frame is strong enough to survive untouched
        if self.medium._captures(rss, lock.rss):
            self._lock = _Lock(tx, rss)  # newcomer captures the receiver
            return
        lock.collided = True  # comparable power: garbles the locked frame

    def _on_tx_end(self, tx: _Transmission, rss: float) -> None:
        was_busy = self.transmitting or bool(self._energy)
        self._energy.discard(tx)
        lock = self._lock
        if lock is not None and lock.tx is tx:
            self._lock = None
            self.medium._deliver(tx, self, lock)
        # Inline of _notify_if_transition (runs once per frame per radio).
        now_busy = self.transmitting or bool(self._energy)
        if was_busy != now_busy and self.mac is not None:
            if now_busy:
                self.mac.phy_busy()
            else:
                self.mac.phy_idle()

    def _begin_transmit(self, end_time: float) -> None:
        was_busy = self.transmitting or bool(self._energy)
        self.transmitting = True
        self._tx_end_time = end_time
        self._lock = None  # half duplex: any reception in progress is lost
        self._notify_if_transition(was_busy)

    def _end_transmit(self) -> None:
        was_busy = True  # we were transmitting until this instant
        self.transmitting = False
        self._notify_if_transition(was_busy)
        if self.mac is not None:
            self.mac.phy_tx_done()


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
        # Batched uniform draws for the corruption / address-survival rolls.
        # When a jitter callable shares the stream (it draws Gaussians
        # directly from ``rng``), fall back to draw-on-demand (batch=1) so
        # the interleaving of uniform and Gaussian draws is untouched.
        self._uniform = BatchedUniform(rng, batch=256 if rssi_jitter is None else 1)
        # sender -> [(on_tx_start, on_tx_end, rss, delay, decodable), ...]:
        # one entry per receiver inside carrier-sense range, in attach order.
        # Positions and the path-loss model are fixed once traffic starts, so
        # a sender's list is built on its first frame and only rebuilt after
        # the topology (``_attach``) or the thresholds (``configure_ranges``)
        # change.
        self._hearers: dict[Radio, list[tuple]] = {}
        # rss (linear) -> dB, memoized: each link contributes one value.
        self._rss_db: dict[float, float] = {}

    # -- topology ------------------------------------------------------------

    def _attach(self, radio: Radio) -> None:
        if any(r.name == radio.name for r in self.radios):
            raise ValueError(f"duplicate radio name: {radio.name}")
        self.radios.append(radio)
        self._hearers.clear()  # topology changed: rebuild every hearer list

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

    def _captures(self, strong: float, weak: float) -> bool:
        if not self.capture_enabled:
            return False
        if weak <= 0:
            return True
        return strong / weak >= self.phy.capture_threshold

    # -- transmission ----------------------------------------------------------

    def _hearers_from(self, sender: Radio) -> list[tuple]:
        """Cached hearer list for ``sender``; see ``_hearers`` in ``__init__``."""
        hearers = self._hearers.get(sender)
        if hearers is not None:
            return hearers
        cs_threshold = self.cs_threshold
        rx_threshold = self.rx_threshold
        rss_fn = self.pathloss.rss
        tx_power = sender.tx_power
        position = sender.position
        x, y = position
        # Cheap prune ahead of the exact rule: no receiver beyond the
        # carrier-sense range can reach ``cs_threshold``.  The slack absorbs
        # rounding in the range's pow and in the distance, so the prune never
        # drops a hearer (``tests/test_medium.py`` pins this at the boundary).
        limit_sq = math.inf
        if cs_threshold > 0:
            limit = self.pathloss.range_for_threshold(tx_power, cs_threshold)
            limit_sq = (limit * (1.0 + _PRUNE_SLACK)) ** 2
        hearers = []
        for receiver in self.radios:
            if receiver is sender:
                continue
            rx, ry = receiver.position
            dx = rx - x
            dy = ry - y
            if dx * dx + dy * dy > limit_sq:
                continue
            d = distance(position, receiver.position)
            rss = rss_fn(tx_power, d)
            if rss < cs_threshold:
                continue  # out of interference range: hears nothing
            delay = d / SPEED_OF_LIGHT_M_PER_US if self.propagation_delay else 0.0
            hearers.append(
                (receiver._on_tx_start, receiver._on_tx_end, rss, delay,
                 rss >= rx_threshold)
            )
        self._hearers[sender] = hearers
        return hearers

    def transmit(self, sender: Radio, frame: Any, duration: float) -> None:
        """Broadcast ``frame`` from ``sender`` for ``duration`` microseconds."""
        if sender.transmitting:
            raise RuntimeError(f"{sender.name}: already transmitting")
        if duration <= 0:
            raise ValueError(f"non-positive airtime: {duration}")
        sim = self.sim
        tx = _Transmission(sender, frame, sim.now, sim.now + duration)
        self.frames_sent += 1
        obs = self.obs
        if obs is not None:
            obs.inc(f"phy.{sender.name}.tx_frames")
            obs.inc(f"phy.{sender.name}.tx_airtime_us", duration)
        sender._begin_transmit(tx.end)
        call_after = sim.call_after
        call_after(duration, sender._end_transmit)
        for on_tx_start, on_tx_end, rss, delay, decodable in self._hearers_from(
            sender
        ):
            call_after(delay, on_tx_start, tx, rss, decodable)
            call_after(duration + delay, on_tx_end, tx, rss)

    def _deliver(self, tx: _Transmission, receiver: Radio, lock: _Lock) -> None:
        frame = tx.frame
        corrupted = lock.collided
        if not corrupted and not self.error_model.trivial:
            corrupted = self.error_model.is_corrupted(
                tx.sender.name,
                receiver.name,
                frame.size_bytes,
                frame.kind.name == "DATA",
                self._uniform,
                rate=getattr(frame, "rate", None),
            )
        addr_ok = True
        if corrupted:
            uniform = self._uniform
            addr_ok = (
                uniform.random() < self.addr_dst_survival
                and uniform.random() < self.addr_src_survival
            )
        faults = self.faults
        if faults is not None:
            corrupted, addr_ok = faults.on_deliver(
                tx, receiver, frame, corrupted, addr_ok
            )
        obs = self.obs
        if obs is not None:
            name = receiver.name
            obs.inc(f"phy.{name}.rx_frames")
            if corrupted:
                obs.inc(f"phy.{name}.rx_corrupted")
                if lock.collided:
                    obs.inc(f"phy.{name}.rx_collisions")
                else:
                    obs.inc(f"phy.{name}.rx_fer_drops")
        rss = lock.rss
        rssi_db = self._rss_db.get(rss)
        if rssi_db is None:
            rssi_db = self._rss_db[rss] = rss_to_db(rss)
        if self.rssi_jitter is not None:
            rssi_db += self.rssi_jitter(self.rng)
        if receiver.mac is not None:
            receiver.mac.phy_receive(frame, corrupted, addr_ok, rssi_db)


#: Sentinel distinguishing "no cached plan yet" from a cached ``None``
#: (clean without a draw) in :class:`VectorizedMedium`'s plan cache.
_NO_PLAN = object()


class VectorizedMedium(Medium):
    """:class:`Medium` with batch-precomputed hot paths (``vectorized`` backend).

    Observable behavior is **bit-identical** to the base class — the golden
    traces and :mod:`repro.perf.diff` enforce it.  It inherits ``transmit`` and
    the per-sender hearer lists, and makes two substitutions:

    * Per-frame corruption/address uniforms come from
      :class:`repro.sim.rng.NumpyBlockUniform` (MT19937 state transplanted
      into numpy; block refills replay the scalar stream exactly).  With an
      RSSI-jitter callable the medium keeps the scalar draw-on-demand
      wrapper, because jitter interleaves Gaussian draws on the same stream.
    * ``_deliver`` replaces the table-walk in
      :meth:`BitErrorModel.is_corrupted` with a flat **corruption-plan
      cache** keyed ``(src, dst, size, is_data, rate)``, invalidated by the
      error model's mutation epoch so mid-run ``set_ber``/``set_data_fer``
      (and wholesale model replacement) stay correct.
    """

    def __init__(self, *args: Any, rng_block: int = 4096, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.rssi_jitter is None:
            from repro.sim.rng import NumpyBlockUniform

            self._uniform = NumpyBlockUniform(self.rng, block=rng_block)
        # (src, dst, size, is_data, rate) -> corruption probability or None.
        self._plan: dict[tuple, Any] = {}
        self._plan_key: tuple | None = None

    def _deliver(self, tx: _Transmission, receiver: Radio, lock: _Lock) -> None:
        # Mirror of Medium._deliver with the corruption roll cached flat.
        frame = tx.frame
        corrupted = lock.collided
        if not corrupted and not self.error_model.trivial:
            model = self.error_model
            model_key = (id(model), model._epoch, model.default_ber)
            if model_key != self._plan_key:
                self._plan.clear()
                self._plan_key = model_key
            plan_key = (
                tx.sender.name,
                receiver.name,
                frame.size_bytes,
                frame.kind.name == "DATA",
                getattr(frame, "rate", None),
            )
            plan = self._plan.get(plan_key, _NO_PLAN)
            if plan is _NO_PLAN:
                plan = self._plan[plan_key] = model.corruption_plan(*plan_key)
            if plan is not None:
                corrupted = self._uniform.random() < plan
        addr_ok = True
        if corrupted:
            uniform = self._uniform
            addr_ok = (
                uniform.random() < self.addr_dst_survival
                and uniform.random() < self.addr_src_survival
            )
        faults = self.faults
        if faults is not None:
            corrupted, addr_ok = faults.on_deliver(
                tx, receiver, frame, corrupted, addr_ok
            )
        obs = self.obs
        if obs is not None:
            name = receiver.name
            obs.inc(f"phy.{name}.rx_frames")
            if corrupted:
                obs.inc(f"phy.{name}.rx_corrupted")
                if lock.collided:
                    obs.inc(f"phy.{name}.rx_collisions")
                else:
                    obs.inc(f"phy.{name}.rx_fer_drops")
        rss = lock.rss
        rssi_db = self._rss_db.get(rss)
        if rssi_db is None:
            rssi_db = self._rss_db[rss] = rss_to_db(rss)
        if self.rssi_jitter is not None:
            rssi_db += self.rssi_jitter(self.rng)
        if receiver.mac is not None:
            receiver.mac.phy_receive(frame, corrupted, addr_ok, rssi_db)


class SinrRadio(Radio):
    """Radio whose reception decisions come from an SINR margin.

    Tracks the received power of every audible concurrent transmission
    (``_rss``, insertion-ordered alongside ``_energy``) and re-evaluates the
    locked frame's signal-to-interference-plus-noise ratio whenever an
    overlapping transmission *starts*.  Interference only ever increases at
    a start and decreases at an end, and a radio cannot re-synchronize
    mid-frame, so a frame that clears its margin at every overlap start has
    held it for its whole airtime — no check is needed at transmission end,
    and the ``collided`` flag stays sticky exactly as in the pairwise model.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Power of every audible in-flight transmission, in arrival order.
        # Plain insertion-ordered dict: the deterministic left-to-right
        # interference sum must be identical across backends, which holds
        # because both schedule ``_on_tx_start`` in hearer-list (attach) order.
        self._rss: dict[_Transmission, float] = {}
        super().__init__(*args, **kwargs)

    def _on_tx_start(self, tx: _Transmission, rss: float, decodable: bool) -> None:
        was_busy = self.transmitting or bool(self._energy)
        self._energy.add(tx)
        self._rss[tx] = rss
        if not self.transmitting:
            medium = self.medium
            lock = self._lock
            if lock is None:
                if decodable and medium._sinr_ok(self, tx, rss):
                    self._lock = _Lock(tx, rss)
            elif lock.collided or not medium._sinr_ok(self, lock.tx, lock.rss):
                # The locked frame is doomed (already garbled, or the
                # newcomer pushed it below its margin).  The newcomer takes
                # the receiver only if it clears its own margin *including*
                # the doomed frame's power — SINR capture.
                if decodable and medium._sinr_ok(self, tx, rss):
                    self._lock = _Lock(tx, rss)
                elif not lock.collided:
                    lock.collided = True
        # Inline notify, as in the base class: energy was just added.
        if not was_busy and self.mac is not None:
            self.mac.phy_busy()

    def _on_tx_end(self, tx: _Transmission, rss: float) -> None:
        was_busy = self.transmitting or bool(self._energy)
        self._energy.discard(tx)
        self._rss.pop(tx, None)
        lock = self._lock
        if lock is not None and lock.tx is tx:
            self._lock = None
            self.medium._deliver(tx, self, lock)
        now_busy = self.transmitting or bool(self._energy)
        if was_busy != now_busy and self.mac is not None:
            if now_busy:
                self.mac.phy_busy()
            else:
                self.mac.phy_idle()


class _SinrMixin:
    """SINR decision logic shared by the scalar and vectorized media.

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
        if frame.kind.name == "DATA":
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
        sum over the insertion-ordered ``_rss`` dict is deterministic and
        backend-identical (:func:`repro.phy.vectorized.sinr_array` is the
        batch analysis twin, pinned element-exact in tests).
        """
        interference = 0.0
        for other, power in radio._rss.items():
            if other is not tx:
                interference += power
        return rss >= self._sinr_threshold_for(tx.frame) * (
            self.noise_floor + interference
        )


class SinrMedium(_SinrMixin, Medium):
    """:class:`Medium` with SINR-based reception (``channel model "sinr"``).

    Carrier sense, corruption/FER rolls, address survival, fault hooks and
    delivery are all inherited unchanged — the model only replaces *which
    overlaps corrupt or capture*, via :class:`SinrRadio`.  Golden traces for
    this model live in their own committed set (the pairwise set stays the
    reference; DESIGN.md §15).
    """


class VectorizedSinrMedium(_SinrMixin, VectorizedMedium):
    """:class:`VectorizedMedium` with SINR-based reception.

    Bit-identical to :class:`SinrMedium` — both share the base class's
    hearer lists, so ``_on_tx_start`` arrival order (and with it the
    interference-sum order) matches the scalar medium exactly; the
    cross-backend differential harness enforces it on the SINR golden set.
    """
