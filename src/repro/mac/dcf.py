"""IEEE 802.11 DCF state machine.

One :class:`DcfMac` per station.  Implements, per IEEE 802.11-1999 and the
paper's Section II description:

* physical carrier sense (from the radio) and virtual carrier sense (NAV),
* DIFS deferral (EIFS after a corrupted reception), slotted backoff drawn
  uniformly from ``[0, CW]``, frozen while the medium is busy,
* binary exponential backoff: CW doubles after each failed transmission up to
  ``CW_max`` and resets to ``CW_min`` on success,
* optional RTS/CTS exchange, SIFS-separated CTS/DATA/ACK responses,
* retry limits (short for RTS, long for data) with packet drop at the limit,
* NAV updates from overheard frames — only when the frame is *not* addressed
  to this station and only when the new value exceeds the current one
  (the rule greedy receivers exploit, Section IV-A).

Misbehavior hooks are delegated to the installed
:class:`repro.mac.policy.ReceiverPolicy`; detection/mitigation hooks (GRC,
Section VII) are the optional ``nav_validator`` and ``ack_inspector``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    # Type annotations only.  The MAC never draws from the global ``random``
    # module: every stochastic decision (backoff slots) flows through the
    # per-scenario injected ``rng`` stream, so interleaving the construction
    # of two simulators can never perturb either one's results
    # (tests/test_rng_isolation.py holds this invariant down).
    import random

from repro.mac.frames import Frame, FrameKind, data_duration, rts_duration
from repro.mac.policy import ReceiverPolicy
from repro.mac.stats import MacStats
from repro.phy.medium import Radio
from repro.phy.params import ACK_SIZE, CTS_SIZE, DATA_HEADER_SIZE, RTS_SIZE, PhyParams
from repro.sim.engine import Event, Simulator


# MAC states.
IDLE = "IDLE"  # nothing to transmit
CONTEND = "CONTEND"  # deferring / backing off toward a transmission
WAIT_CTS = "WAIT_CTS"  # RTS sent, awaiting CTS
SEND_DATA = "SEND_DATA"  # CTS received, data transmission queued at SIFS
WAIT_ACK = "WAIT_ACK"  # data sent, awaiting ACK


class _Msdu:
    """One queued upper-layer packet."""

    __slots__ = ("payload", "dst", "size_bytes", "seq")

    def __init__(self, payload: Any, dst: str, size_bytes: int, seq: int):
        self.payload = payload
        self.dst = dst
        self.size_bytes = size_bytes
        self.seq = seq


class DcfMac:
    """802.11 DCF MAC for one station."""

    # A fixed layout: CPython 3.11 keeps ``self.x`` on its specialised path
    # only for instances with fewer than 30 dict attributes, and a MAC has
    # 54.  There is no ``__dict__``: code that wraps a method wraps it on
    # the class (tests/test_layout.py checks both).
    __slots__ = (
        "sim",
        "phy",
        "radio",
        "name",
        "rng",
        "policy",
        "rts_enabled",
        "queue_limit",
        "no_retransmit_to",
        "cw_max_to",
        "cw_min",
        "cw_max",
        "eifs_enabled",
        "nav_validator",
        "ack_inspector",
        "rate_controller",
        "on_deliver",
        "on_msdu_sent",
        "on_msdu_dropped",
        "stats",
        "obs",
        "_difs",
        "_eifs",
        "_slot_time",
        "_sifs",
        "_cts_timeout_us",
        "_ack_timeout_us",
        "_randrange",
        "_cts_time",
        "_rts_airtime",
        "_cts_airtime",
        "_ack_airtime",
        "_data_nav",
        "_data_airtimes",
        "_rts_navs",
        "_queue",
        "_state",
        "cw",
        "_short_retries",
        "_long_retries",
        "_seq",
        "_backoff_slots",
        "_access_timer",
        "_cts_timer",
        "_ack_timer",
        "_nav_timer",
        "_access_start",
        "_access_ifs",
        "_timeout_event",
        "_use_eifs",
        "nav_until",
        "_rx_cache",
        "_last_tx_kind",
        "_offline",
    )

    def __init__(
        self,
        sim: Simulator,
        phy: PhyParams,
        radio: Radio,
        rng: random.Random,
        policy: ReceiverPolicy | None = None,
        rts_enabled: bool = True,
        queue_limit: int = 50,
        eifs_enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.phy = phy
        self.radio = radio
        radio.mac = self
        self.name = radio.name
        self.rng = rng
        self.policy = policy or ReceiverPolicy()
        self.policy.attach(self)
        self.rts_enabled = rts_enabled
        self.queue_limit = queue_limit
        #: Destinations toward which MAC retransmission is disabled: the
        #: testbed's emulation of ACK spoofing (Table VIII).
        self.no_retransmit_to: set[str] = set()
        #: Per-destination CW_max override: ``{dst: cw_min}`` emulates the
        #: testbed's fake-ACK study (Table IX), where the sender never backs
        #: off when transmitting to the greedy receiver.
        self.cw_max_to: dict[str, int] = {}
        self.cw_min = phy.cw_min
        self.cw_max = phy.cw_max
        #: EIFS deferral after corrupted receptions (802.11 default: on).
        #: Exposed for the ablation study of the fake-ACK dynamics.
        self.eifs_enabled = eifs_enabled

        # GRC hooks (Section VII).  ``nav_validator`` corrects overheard NAVs;
        # ``ack_inspector`` vets incoming MAC ACKs for spoofing.
        self.nav_validator: Any = None
        self.ack_inspector: Any = None
        #: Optional per-destination rate adaptation (ARF); None = fixed rate.
        self.rate_controller: Any = None

        # Upper-layer callbacks.
        self.on_deliver: Callable[[Any, str], None] | None = None
        self.on_msdu_sent: Callable[[Any, str], None] | None = None
        self.on_msdu_dropped: Callable[[Any, str], None] | None = None

        self.stats = MacStats()
        #: Telemetry registry (:mod:`repro.obs`) or None; every hook is
        #: ``is not None`` guarded so telemetry-off runs are untouched.
        self.obs: Any = None

        # Hot-path timing constants, resolved once: these are pure float
        # arithmetic on the frozen PhyParams, so hoisting them out of the
        # per-frame path is bit-exact (tests/test_mac_timing.py and the
        # golden traces pin the values).
        self._difs = phy.difs
        self._eifs = phy.eifs
        self._slot_time = phy.slot_time
        self._sifs = phy.sifs
        self._cts_timeout_us = phy.cts_timeout()
        self._ack_timeout_us = phy.ack_timeout()
        self._randrange = rng.randrange  # randint(0, cw) == randrange(cw + 1)
        # The transmit path's per-frame constants, from the same PhyParams
        # arithmetic the frame builders in repro.mac.frames use: control
        # frames have fixed sizes and fly at the basic rate; a data frame's
        # airtime depends on (size, rate) and an RTS's NAV on the payload
        # size, so those two are memoized (keys never hash a FrameKind).
        self._cts_time = phy.cts_time
        self._rts_airtime = phy.airtime(RTS_SIZE, phy.basic_rate)
        self._cts_airtime = phy.airtime(CTS_SIZE, phy.basic_rate)
        self._ack_airtime = phy.airtime(ACK_SIZE, phy.basic_rate)
        self._data_nav = data_duration(phy)
        self._data_airtimes: dict[tuple[int, float | None], float] = {}
        self._rts_navs: dict[int, float] = {}

        self._queue: deque[_Msdu] = deque()
        self._state = IDLE
        self.cw = self.cw_min
        self._short_retries = 0
        self._long_retries = 0
        self._seq = 0
        self._backoff_slots: int | None = None
        # One handle per timer, re-armed in place (``pending`` while armed).
        self._access_timer = sim.timer(self._access_granted)
        self._cts_timer = sim.timer(self._cts_timeout)
        self._ack_timer = sim.timer(self._ack_timeout)
        self._nav_timer = sim.timer(self._try_start_access)
        self._access_start = 0.0
        self._access_ifs = 0.0
        #: The armed response timeout (the CTS or the ACK timer), or None.
        self._timeout_event: Event | None = None
        self._use_eifs = False
        self.nav_until = 0.0
        # 802.11's receive cache: the last seq delivered per sender.
        self._rx_cache: dict[str, int] = {}
        self._last_tx_kind: FrameKind | None = None
        #: True between :meth:`crash` and :meth:`reboot`: the station is
        #: dead — it neither transmits, receives nor reacts to the medium.
        self._offline = False
        # The radio's edge filter (see Radio): a busy edge matters only
        # while an access countdown runs, an idle edge only while contending
        # without one.  Every write to ``_state``/``_access_timer`` below
        # keeps the two flags current; an offline MAC never wants an edge.
        radio.wants_busy = False
        radio.wants_idle = False

    def _unlink(self) -> None:
        """Drop the upper-layer callbacks and the policy's link back here.

        The callbacks are bound methods of the node (or transport closures
        over it) that point back at this MAC, so they close cycles.
        ``stats`` stays readable.
        """
        self.on_deliver = None
        self.on_msdu_sent = None
        self.on_msdu_dropped = None
        self.policy.mac = None

    # ------------------------------------------------------------------ API --

    def send(self, payload: Any, dst: str, size_bytes: int) -> bool:
        """Enqueue one MSDU for ``dst``.  Returns False on queue overflow."""
        if self._offline:
            self.stats.crash_dropped_msdus += 1
            return False
        if len(self._queue) >= self.queue_limit:
            self.stats.queue_drops += 1
            return False
        self._queue.append(_Msdu(payload, dst, size_bytes, self._next_seq()))
        if self._state == IDLE:
            self._state = CONTEND
            self.radio.wants_idle = True
            self._try_start_access()
        return True

    @property
    def queue_length(self) -> int:
        """Number of MSDUs waiting in the interface queue."""
        return len(self._queue)

    @property
    def state(self) -> str:
        """Current DCF state (IDLE/CONTEND/WAIT_CTS/SEND_DATA/WAIT_ACK)."""
        return self._state

    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) % (1 << 12)
        return self._seq

    # -------------------------------------------------------- crash/reboot --

    @property
    def offline(self) -> bool:
        """True while the station is crashed (between crash() and reboot())."""
        return self._offline

    def crash(self) -> None:
        """Power-fail this station: drop all state, go deaf and mute.

        Queued MSDUs are lost, pending access/timeout/NAV timers cancelled
        and any reception in progress abandoned.  A frame this station had
        on the air keeps propagating (the energy was already emitted) but no
        response timer is ever armed for it.  Idempotent while offline.
        """
        if self._offline:
            return
        self._offline = True
        self.stats.crashes += 1
        if self.obs is not None:
            self.obs.inc(f"mac.{self.name}.crashes")
        self._cancel_timeout()
        self.sim.cancel(self._access_timer)
        self.radio.wants_busy = False
        self.radio.wants_idle = False
        self.sim.cancel(self._nav_timer)
        self.nav_until = 0.0
        self.stats.crash_dropped_msdus += len(self._queue)
        if self.on_msdu_dropped is not None:
            for msdu in self._queue:
                self.on_msdu_dropped(msdu.payload, msdu.dst)
        self._queue.clear()
        self._reset_exchange()
        self._state = IDLE
        self._use_eifs = False
        self._rx_cache.clear()
        self.radio._lock_tx = None  # the frame being decoded dies with us

    def reboot(self) -> None:
        """Bring a crashed station back with factory-fresh DCF state.

        The MSDU sequence counter deliberately survives (so peers' duplicate
        detection never discards post-reboot traffic); everything else —
        CW, retries, NAV, queue — starts clean.  No-op unless crashed.
        """
        if not self._offline:
            return
        self._offline = False
        self.stats.reboots += 1
        if self.obs is not None:
            self.obs.inc(f"mac.{self.name}.reboots")

    # -------------------------------------------------------- carrier sense --

    def _update_nav(self, until: float) -> None:
        """Grow the NAV to ``until``; callers check that it grows."""
        if self.obs is not None:
            # NAV-deferral time: microseconds of virtual-carrier busy added
            # by this update — the signal the paper's NAV validator consumes.
            now = self.sim.now
            self.obs.inc(
                f"mac.{self.name}.nav_deferral_us",
                until - (self.nav_until if self.nav_until > now else now),
            )
        self.nav_until = until
        if self._access_timer.pending:
            self._freeze_access()
        self.sim.rearm_at(self._nav_timer, until)

    # ------------------------------------------------------- backoff engine --

    def _try_start_access(self) -> None:
        """Start the DIFS/EIFS + backoff countdown if the channel allows.

        Also the NAV timer's callback and, as :meth:`phy_idle`, the radio's
        idle edge.
        """
        if self._state != CONTEND or self._access_timer.pending:
            return
        radio = self.radio
        now = self.sim.now
        if radio.transmitting or radio._energy or now < self.nav_until:
            return  # physical or virtual carrier busy
        if self._backoff_slots is None:
            self._backoff_slots = self._randrange(self.cw + 1)
        slots = self._backoff_slots
        self._access_start = now
        if self._use_eifs:
            self._access_ifs = self._eifs
            delay = self._eifs + slots * self._slot_time
        else:
            self._access_ifs = self._difs
            delay = self._difs + slots * self._slot_time
        self.sim.rearm_at(self._access_timer, now + delay)
        radio.wants_busy = True
        radio.wants_idle = False

    def _freeze_access(self) -> None:
        """Stop a running countdown, keeping the backoff slots left.

        Also the radio's busy edge, as :meth:`phy_busy`.
        """
        if not self._access_timer.pending:
            return
        elapsed = self.sim.now - self._access_start
        if elapsed > self._access_ifs:
            consumed = int((elapsed - self._access_ifs) // self._slot_time)
            assert self._backoff_slots is not None
            self._backoff_slots = max(0, self._backoff_slots - consumed)
        self.sim.cancel(self._access_timer)
        radio = self.radio
        radio.wants_busy = False
        radio.wants_idle = self._state == CONTEND

    # The radio's carrier-sense edges.  No offline guard: crash() leaves the
    # MAC IDLE with no countdown armed, so both return at once until the
    # station sends again.
    phy_busy = _freeze_access
    phy_idle = _try_start_access

    def _access_granted(self) -> None:
        radio = self.radio
        radio.wants_busy = False
        radio.wants_idle = False  # leaving CONTEND: to IDLE or an exchange
        if not self._queue:  # defensive: nothing left to send
            self._state = IDLE
            return
        msdu = self._queue[0]
        self.stats.sample_cw(self.cw)
        obs = self.obs
        if obs is not None:
            obs.observe(f"mac.{self.name}.cw", self.cw)
            obs.observe(
                f"mac.{self.name}.backoff_stage",
                self._short_retries + self._long_retries,
            )
        if self.rts_enabled:
            self._send_rts(msdu)
        else:
            self._send_data(msdu)

    # ----------------------------------------------------------- transmit ----

    def _send_rts(self, msdu: _Msdu) -> None:
        size = msdu.size_bytes
        nav = self._rts_navs.get(size)
        if nav is None:
            nav = self._rts_navs[size] = rts_duration(self.phy, size)
        frame = Frame(FrameKind.RTS, self.name, msdu.dst, nav, RTS_SIZE)
        policy = self.policy
        if policy.rewrites_nav:
            frame.duration = policy.outgoing_nav(frame)
        self._state = WAIT_CTS
        self.stats.tx_rts += 1
        self._last_tx_kind = FrameKind.RTS
        radio = self.radio
        radio.medium.transmit(radio, frame, self._rts_airtime)

    def _send_data(self, msdu: _Msdu) -> None:
        rate = None
        if self.rate_controller is not None:
            rate = self.rate_controller.rate_for(msdu.dst)
        size = DATA_HEADER_SIZE + msdu.size_bytes
        airtime = self._data_airtimes.get((size, rate))
        if airtime is None:  # rate None is the PHY's data rate
            airtime = self._data_airtimes[(size, rate)] = self.phy.airtime(size, rate)
        frame = Frame(
            FrameKind.DATA,
            self.name,
            msdu.dst,
            self._data_nav,
            size,
            seq=msdu.seq,
            retry=self._long_retries > 0 or self._short_retries > 0,
            payload=msdu.payload,
            rate=rate,
        )
        policy = self.policy
        if policy.rewrites_nav:
            frame.duration = policy.outgoing_nav(frame)
        self._state = WAIT_ACK
        self.stats.tx_data += 1
        self.stats.data_attempts_by_dst[msdu.dst] += 1
        self._last_tx_kind = FrameKind.DATA
        radio = self.radio
        radio.medium.transmit(radio, frame, airtime)

    def phy_tx_done(self) -> None:
        """Our own transmission ended: arm the matching response timeout."""
        kind = self._last_tx_kind
        self._last_tx_kind = None
        if self._offline:
            return  # crashed mid-transmit: no response timers for the dead
        if kind is FrameKind.RTS and self._state == WAIT_CTS:
            timer = self._timeout_event = self._cts_timer
            self.sim.rearm_at(timer, self.sim.now + self._cts_timeout_us)
        elif kind is FrameKind.DATA and self._state == WAIT_ACK:
            timer = self._timeout_event = self._ack_timer
            self.sim.rearm_at(timer, self.sim.now + self._ack_timeout_us)

    # ------------------------------------------------------------ timeouts ---

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None

    def _cts_timeout(self) -> None:
        self._timeout_event = None
        self._short_retries += 1
        self._retry(self._short_retries > self.phy.short_retry_limit)

    def _ack_timeout(self) -> None:
        self._timeout_event = None
        if self._queue:
            self.stats.ack_failures_by_dst[self._queue[0].dst] += 1
            if self.rate_controller is not None:
                self.rate_controller.on_failure(self._queue[0].dst)
        limit = (
            self.phy.long_retry_limit if self.rts_enabled else self.phy.short_retry_limit
        )
        self._long_retries += 1
        exceeded = self._long_retries > limit
        if self._queue and self._queue[0].dst in self.no_retransmit_to:
            # Testbed emulation of spoofed ACKs: give up after one attempt but
            # do not double CW (the sender believes the frame was delivered).
            self._complete_current(success=True)
            return
        self._retry(exceeded)

    def _retry(self, drop: bool) -> None:
        self.stats.retries += 1
        obs = self.obs
        if obs is not None:
            obs.inc(f"mac.{self.name}.retries")
            if drop:
                obs.inc(f"mac.{self.name}.drops")
        cw_cap = self.cw_max
        if self._queue and self._queue[0].dst in self.cw_max_to:
            cw_cap = self.cw_max_to[self._queue[0].dst]
        self.cw = min(2 * (self.cw + 1) - 1, cw_cap)
        if drop:
            self.stats.drops += 1
            msdu = self._queue.popleft()
            self._reset_exchange()
            if self.on_msdu_dropped is not None:
                self.on_msdu_dropped(msdu.payload, msdu.dst)
            self._next_packet()
            return
        self._backoff_slots = None
        self._state = CONTEND
        self.radio.wants_idle = True
        self._try_start_access()

    def _reset_exchange(self) -> None:
        self.cw = self.cw_min
        self._short_retries = 0
        self._long_retries = 0
        self._backoff_slots = None

    def _complete_current(self, success: bool) -> None:
        timeout = self._timeout_event  # _cancel_timeout(), inline
        if timeout is not None:
            self.sim.cancel(timeout)
            self._timeout_event = None
        msdu = self._queue.popleft()
        self._reset_exchange()
        if success:
            self.stats.msdu_sent += 1
            if self.rate_controller is not None:
                self.rate_controller.on_success(msdu.dst)
            if self.on_msdu_sent is not None:
                self.on_msdu_sent(msdu.payload, msdu.dst)
        elif self.on_msdu_dropped is not None:
            self.on_msdu_dropped(msdu.payload, msdu.dst)
        self._next_packet()

    def _next_packet(self) -> None:
        self._state = CONTEND if self._queue else IDLE
        self.radio.wants_idle = self._state == CONTEND
        self._try_start_access()

    # -------------------------------------------------------------- receive --

    def phy_receive(self, frame: Frame, corrupted: bool, addr_ok: bool, rssi_db: float) -> None:
        """Handle a frame delivered by the radio (possibly corrupted)."""
        if self._offline:
            return
        if corrupted:
            self._use_eifs = self.eifs_enabled
            if (
                addr_ok
                and frame.kind is FrameKind.DATA
                and frame.dst == self.name
            ):
                self.stats.rx_data_corrupted += 1
                if self.policy.should_fake_ack(frame):
                    self.stats.tx_fake_ack += 1
                    self._schedule_response(self._build_ack(frame))
            return

        self._use_eifs = False
        if frame.dst == self.name:
            self._receive_addressed(frame, rssi_db)
            return
        # Overheard: honour its NAV (as corrected by GRC's validator), and
        # let a greedy policy spoof the ACK of an overheard DATA frame.
        now = self.sim.now
        duration = frame.duration
        if self.nav_validator is not None:
            duration = self.nav_validator.observe_and_validate(frame, now, rssi_db)
        until = now + duration
        if until > self.nav_until and until > now:
            self._update_nav(until)
        if frame.kind is FrameKind.DATA and self.policy.should_spoof_ack(frame):
            spoof = self._build_ack(frame, impersonate=frame.dst)
            self.stats.tx_spoofed_ack += 1
            self._schedule_response(spoof)

    def _receive_addressed(self, frame: Frame, rssi_db: float) -> None:
        kind = frame.kind
        if kind is FrameKind.RTS:
            # Respond with CTS only when virtual carrier sense is idle.
            if self.sim.now >= self.nav_until:
                self._schedule_response(self._build_cts(frame))
            return
        if kind is FrameKind.DATA:
            self.stats.rx_data_clean += 1
            if self.ack_inspector is not None:
                self.ack_inspector.observe_data(frame.src, rssi_db, self.sim.now)
            self._schedule_response(self._build_ack(frame))
            self._deliver_up(frame)
            return
        if kind is FrameKind.CTS:
            if self._state == WAIT_CTS:
                self._cancel_timeout()
                self._state = SEND_DATA
                # Never cancelled (the state guard in _data_after_cts handles
                # interruptions), so the fire-and-forget fast path applies.
                self.sim.call_after(self._sifs, self._data_after_cts)
            return
        if kind is FrameKind.ACK:
            if self._state != WAIT_ACK:
                return
            if self.ack_inspector is not None and self.ack_inspector.is_spoofed(
                frame, rssi_db, self.sim.now
            ):
                self.stats.acks_ignored_by_grc += 1
                return  # let the ACK timeout fire and retransmit as we should
            self._complete_current(success=True)

    def _data_after_cts(self) -> None:
        if self._state != SEND_DATA or not self._queue:
            return
        if self.radio.transmitting:
            # Half-duplex conflict: a SIFS response we owed a peer is still
            # on the air when the data send should start (the CTS and the
            # frame that provoked the response arrived within one SIFS).
            # Abandon the round and re-contend, as after a lost CTS.
            self._short_retries += 1
            self._retry(self._short_retries > self.phy.short_retry_limit)
            return
        self._send_data(self._queue[0])

    def _deliver_up(self, frame: Frame) -> None:
        # A retransmission whose first copy got through but whose ACK was
        # lost: only a retry can repeat the sender's last seq, so seqs may
        # wrap freely (they are 12-bit).
        src = frame.src
        if frame.retry and self._rx_cache.get(src) == frame.seq:
            self.stats.rx_duplicates += 1
            return
        self._rx_cache[src] = frame.seq
        if self.on_deliver is not None:
            self.on_deliver(frame.payload, frame.src)

    # ------------------------------------------------------------ responses --

    def _build_cts(self, rts: Frame) -> Frame:
        # repro.mac.frames.cts_duration_from_rts, inline.
        nav = rts.duration - self._sifs - self._cts_time
        cts = Frame(FrameKind.CTS, self.name, rts.src, nav if nav > 0.0 else 0.0, CTS_SIZE)
        policy = self.policy
        if policy.rewrites_nav:
            cts.duration = policy.outgoing_nav(cts)
        return cts

    def _build_ack(self, data: Frame, impersonate: str | None = None) -> Frame:
        src = impersonate if impersonate is not None else self.name
        ack = Frame(FrameKind.ACK, src, data.src, 0.0, ACK_SIZE)  # final ACK: no NAV
        policy = self.policy
        if policy.rewrites_nav:
            ack.duration = policy.outgoing_nav(ack)
        return ack

    def _schedule_response(self, frame: Frame) -> None:
        # SIFS responses are never cancelled once queued (half-duplex
        # conflicts are resolved inside _send_response), so skip the
        # cancellable-Event allocation.
        self.sim.call_after(self._sifs, self._send_response, frame)

    def _send_response(self, frame: Frame) -> None:
        if self._offline:
            return  # crashed within SIFS of the frame that asked for it
        radio = self.radio
        if radio.transmitting:
            return  # half-duplex conflict: the response is lost
        kind = self._last_tx_kind = frame.kind
        if kind is FrameKind.CTS:
            self.stats.tx_cts += 1
            airtime = self._cts_airtime
        else:  # responses are CTS or ACK
            self.stats.tx_ack += 1
            airtime = self._ack_airtime
        radio.medium.transmit(radio, frame, airtime)
