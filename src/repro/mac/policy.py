"""Receiver-side behavior policy: the hook surface misbehaviors plug into.

A :class:`ReceiverPolicy` is consulted by :class:`repro.mac.DcfMac` at the
three points a *receiver* controls in 802.11:

* when building an outgoing frame (NAV inflation — misbehavior 1),
* when overhearing a data frame destined to someone else (ACK spoofing —
  misbehavior 2),
* when receiving a corrupted data frame destined to itself (fake ACKs —
  misbehavior 3).

The base class implements standard-compliant behavior; greedy variants live in
:mod:`repro.core.greedy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mac.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.dcf import DcfMac


class ReceiverPolicy:
    """Standard (well-behaved) IEEE 802.11 receiver behavior."""

    #: Whether :meth:`outgoing_nav` may change a NAV.  The MAC asks
    #: :meth:`outgoing_nav` only while this is True, so a subclass that
    #: overrides it must set this True too.
    rewrites_nav = False

    def attach(self, mac: "DcfMac") -> None:
        """Called once when the policy is installed on a MAC."""
        self.mac = mac

    def outgoing_nav(self, frame: Frame) -> float:
        """Return the NAV to put in ``frame`` (already holds the correct one)."""
        return frame.duration

    def should_spoof_ack(self, data_frame: Frame) -> bool:
        """Whether to transmit an ACK on behalf of ``data_frame.dst``."""
        return False

    def should_fake_ack(self, corrupted_frame: Frame) -> bool:
        """Whether to ACK a corrupted frame addressed to this station."""
        return False
