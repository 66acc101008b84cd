"""Inflated-NAV detection and correction (Section VII-A).

Two cases, exactly as the paper describes:

* A validator **within range of the sender** overheard the RTS of the current
  exchange, so it knows the correct CTS NAV (RTS NAV minus SIFS and the CTS
  airtime) and can clamp precisely.
* A validator **out of the sender's range** bounds the reservation using the
  largest Internet packet (Ethernet MTU, 1500 bytes by default).

ACK NAV must be zero without fragmentation; data-frame NAV must be
SIFS + ACK.  Anything above expectation (plus a small tolerance) is recorded
as a detection and replaced by the expected value, which is what the
validating node then uses for its own virtual carrier sense.

:class:`NavValidator` is the repo's one online implementation of this rule,
with two entry points over the same state: inside a station's MAC
(:meth:`~NavValidator.observe_and_validate` on each overheard
:class:`~repro.mac.frames.Frame`, which is what produces the fig23
corrections) and as a :class:`~repro.core.detection.report.StreamingDetector`
over trace records (:meth:`~NavValidator.feed`, the ``"monitor"`` NAV
detector of :func:`~repro.core.detection.streaming.default_pipeline`).
``repro detect diff`` therefore checks the in-node code against the
independent offline reference.
"""

from __future__ import annotations

from typing import Any

from repro.core.detection.report import (
    DetectionEvent,
    DetectionReport,
    StreamingDetector,
)
from repro.mac.frames import Frame, FrameKind, max_cts_nav, rts_duration
from repro.phy.params import PhyParams


class NavValidator(StreamingDetector):
    """Per-node NAV validation state (installed as ``mac.nav_validator``).

    State is one ``responder -> (expected CTS NAV, expiry)`` entry per
    in-flight RTS/CTS exchange.  Expired entries are purged on every RTS;
    purging is output-neutral because an expired entry and an absent one
    both fall back to the MTU bound, which is what keeps the table bounded
    by the number of exchanges that can overlap one maximum NAV interval.
    """

    name = "nav"

    #: Declared upper bound on in-flight exchanges (:meth:`bound`).
    MAX_TRACKED = 4096

    def __init__(
        self,
        phy: PhyParams,
        node_name: str,
        report: DetectionReport | None = None,
        mtu_bytes: int = 1500,
        tolerance_us: float = 5.0,
    ) -> None:
        self.phy = phy
        self.node_name = node_name
        self.report = report if report is not None else DetectionReport()
        self.mtu_bytes = mtu_bytes
        self.tolerance_us = tolerance_us
        self.corrections = 0
        # Responder name -> (expected CTS NAV, expiry time): filled from
        # overheard RTS frames of exchanges in progress.
        self._expected_cts: dict[str, tuple[float, float]] = {}
        # Per-PHY constants of the rule; pure functions of (phy, mtu).
        self._rts_expected = rts_duration(phy, mtu_bytes)
        self._cts_fallback = max_cts_nav(phy, mtu_bytes)
        self._data_expected = phy.sifs + phy.ack_time

    # ------------------------------------------------------------------------

    def observe_and_validate(self, frame: Frame, now: float, rssi_db: float) -> float:
        """Return the NAV value this node should actually honor for ``frame``."""
        kind = frame.kind
        nav = frame.duration
        expected = self._expected_nav(now, kind, frame.src, frame.dst, nav)
        if nav > expected + self.tolerance_us:
            self.corrections += 1
            self.report.record(
                now,
                self.name,
                self.node_name,
                frame.src,
                f"{kind.value} NAV {nav:.0f}us > expected {expected:.0f}us",
            )
            return expected
        return nav

    def feed(self, record: Any) -> list[DetectionEvent]:
        """Validate one :class:`~repro.stats.trace.TraceRecord`."""
        now = record.time_us
        nav = record.nav_us
        expected = self._expected_nav(
            now, FrameKind(record.kind), record.src, record.dst, nav
        )
        if nav > expected + self.tolerance_us:
            return [
                DetectionEvent(
                    now,
                    self.name,
                    self.node_name,
                    record.src,
                    f"{record.kind} NAV {nav:.0f}us > expected {expected:.0f}us",
                )
            ]
        return []

    # ------------------------------------------------------------------------

    def _expected_nav(
        self, now: float, kind: FrameKind, src: str, dst: str, nav: float
    ) -> float:
        if kind is FrameKind.RTS:
            self._purge(now)
            # The RTS NAV itself may be inflated (TCP greedy receivers
            # transmit RTS for their TCP ACKs), so bound it before deriving
            # the CTS expectation from it.
            claimed = min(nav, self._rts_expected)
            expected_cts = max(0.0, claimed - self.phy.sifs - self.phy.cts_time)
            self._expected_cts[dst] = (expected_cts, now + claimed + self.tolerance_us)
            return self._rts_expected
        if kind is FrameKind.CTS:
            entry = self._expected_cts.get(src)
            if entry is not None:
                expected, expires = entry
                if now <= expires:
                    return expected
                del self._expected_cts[src]
            # Out of the sender's range: fall back to the MTU bound.
            return self._cts_fallback
        if kind is FrameKind.DATA:
            return self._data_expected
        return 0.0  # ACK: zero without fragmentation

    def _purge(self, now: float) -> None:
        if self._expected_cts:
            expired = [r for r, (_, exp) in self._expected_cts.items() if exp < now]
            for responder in expired:
                del self._expected_cts[responder]

    # ----------------------------------------------------- streaming state --

    def snapshot(self) -> dict[str, Any]:
        return {
            "expected_cts": {
                r: [expected, expires]
                for r, (expected, expires) in self._expected_cts.items()
            }
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._expected_cts = {
            r: (float(expected), float(expires))
            for r, (expected, expires) in state.get("expected_cts", {}).items()
        }

    def state_size(self) -> int:
        return len(self._expected_cts)

    def bound(self) -> int:
        return self.MAX_TRACKED
