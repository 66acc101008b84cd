"""Greedy receiver misbehaviors (Section IV).

A greedy receiver cannot transmit data, but it controls the feedback frames of
802.11 — and, under TCP, the RTS/DATA frames that carry its TCP ACKs.
:class:`GreedyReceiverPolicy` implements the paper's three misbehaviors on top
of the standard :class:`repro.mac.policy.ReceiverPolicy` hook surface:

1. **NAV inflation**: add ``nav_inflation_us`` to the duration field of the
   configured frame kinds (up to the protocol cap of 32767 us).
2. **ACK spoofing**: transmit MAC ACKs on behalf of other receivers whose
   data frames this station overhears in promiscuous mode.
3. **Fake ACKs**: acknowledge corrupted data frames addressed to this station
   so its sender never backs off.

Every misbehavior applies only with probability ``greedy_percentage`` per
opportunity, modeling a stealthy attacker (the paper's "GP" knob).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mac.frames import Frame, FrameKind
from repro.mac.policy import ReceiverPolicy
from repro.phy.params import MAX_NAV_US


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs of a greedy receiver.

    ``greedy_percentage`` (0-100) gates NAV inflation; ``spoof_percentage``
    and ``fake_percentage`` gate misbehaviors 2 and 3 independently, matching
    the per-misbehavior GP sweeps in the paper's evaluation.
    """

    nav_inflation_us: float = 0.0
    inflate_frames: frozenset[FrameKind] = frozenset({FrameKind.CTS})
    greedy_percentage: float = 100.0
    spoof_acks: bool = False
    spoof_percentage: float = 100.0
    spoof_victims: frozenset[str] | None = None  # None: spoof for any receiver
    fake_acks: bool = False
    fake_percentage: float = 100.0

    def __post_init__(self) -> None:
        for name in ("greedy_percentage", "spoof_percentage", "fake_percentage"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must be in [0, 100], got {value}")
        if self.nav_inflation_us < 0:
            raise ValueError("NAV inflation must be non-negative")

    @staticmethod
    def nav_inflator(
        inflation_us: float,
        frames: frozenset[FrameKind] | set[FrameKind] = frozenset({FrameKind.CTS}),
        greedy_percentage: float = 100.0,
    ) -> "GreedyConfig":
        """Misbehavior 1 shorthand."""
        return GreedyConfig(
            nav_inflation_us=inflation_us,
            inflate_frames=frozenset(frames),
            greedy_percentage=greedy_percentage,
        )

    @staticmethod
    def ack_spoofer(
        spoof_percentage: float = 100.0,
        victims: frozenset[str] | set[str] | None = None,
    ) -> "GreedyConfig":
        """Misbehavior 2 shorthand."""
        return GreedyConfig(
            spoof_acks=True,
            spoof_percentage=spoof_percentage,
            spoof_victims=frozenset(victims) if victims is not None else None,
        )

    @staticmethod
    def ack_faker(fake_percentage: float = 100.0) -> "GreedyConfig":
        """Misbehavior 3 shorthand."""
        return GreedyConfig(fake_acks=True, fake_percentage=fake_percentage)


#: All frame kinds a TCP greedy receiver can inflate (Section IV-A: CTS and
#: ACK always; RTS and DATA when sending TCP ACKs).
ALL_FRAMES = frozenset(
    {FrameKind.RTS, FrameKind.CTS, FrameKind.DATA, FrameKind.ACK}
)


class GreedyReceiverPolicy(ReceiverPolicy):
    """A receiver that manipulates 802.11 feedback for more goodput."""

    rewrites_nav = True

    def __init__(self, config: GreedyConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.nav_inflations = 0
        self.spoofs = 0
        self.fakes = 0

    def _roll(self, percentage: float) -> bool:
        if percentage >= 100.0:
            return True
        if percentage <= 0.0:
            return False
        return self.rng.random() * 100.0 < percentage

    def outgoing_nav(self, frame: Frame) -> float:
        cfg = self.config
        if (
            cfg.nav_inflation_us > 0
            and frame.kind in cfg.inflate_frames
            and self._roll(cfg.greedy_percentage)
        ):
            self.nav_inflations += 1
            return min(frame.duration + cfg.nav_inflation_us, float(MAX_NAV_US))
        return frame.duration

    def should_spoof_ack(self, data_frame: Frame) -> bool:
        cfg = self.config
        if not cfg.spoof_acks:
            return False
        if cfg.spoof_victims is not None and data_frame.dst not in cfg.spoof_victims:
            return False
        if not self._roll(cfg.spoof_percentage):
            return False
        self.spoofs += 1
        return True

    def should_fake_ack(self, corrupted_frame: Frame) -> bool:
        cfg = self.config
        if not cfg.fake_acks or not self._roll(cfg.fake_percentage):
            return False
        self.fakes += 1
        return True
