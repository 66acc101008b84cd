"""Gilbert–Elliott bursty-error channel, layered over the base FER model.

The base :class:`repro.phy.error.BitErrorModel` is memoryless: every frame
rolls independently.  Real fades are bursty — a deep fade corrupts *runs*
of consecutive frames, which is exactly the regime where EIFS deferral and
NAV inflation interact pathologically (the paper's greedy receivers profit
most when honest stations keep deferring).  This module adds the classic
two-state model on top: per directed link, a GOOD/BAD Markov chain advanced
once per delivered frame, with a per-state frame error rate.

Determinism: all draws come from the dedicated ``faults.channel`` RNG
stream, and exactly two draws happen per applicable delivery (transition +
loss) regardless of state, so the draw sequence — and therefore every
downstream event — is a pure function of (seed, config, traffic).  The
base medium stream is never touched; a run with the channel *disabled* is
bit-identical to one on a build without this module.
"""

from __future__ import annotations

import random
from typing import Any

from repro.faults.plan import GilbertElliottConfig


class GilbertElliottChannel:
    """Per-directed-link two-state burst-error process."""

    def __init__(
        self,
        config: GilbertElliottConfig,
        rng: random.Random,
        addr_dst_survival: float,
        addr_src_survival: float,
        obs: Any = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.addr_dst_survival = addr_dst_survival
        self.addr_src_survival = addr_src_survival
        self.obs = obs
        self.corrupted_frames = 0
        self.transitions_to_bad = 0
        self._bad: dict[tuple[str, str], bool] = {}
        self._links = None if config.links is None else set(config.links)

    def on_deliver(
        self, sender: str, receiver: str, corrupted: bool, addr_ok: bool
    ) -> tuple[bool, bool]:
        """Advance the link's chain and possibly corrupt this delivery.

        Called by :meth:`repro.phy.medium.Radio._on_tx_end` after the base
        collision/FER verdict; may only flip a clean frame to corrupted,
        never launder a corrupted one.  When this model (and not the base
        one) corrupts the frame, the address-survival roll (paper Table I)
        comes from the fault stream too.
        """
        link = (sender, receiver)
        if self._links is not None and link not in self._links:
            return corrupted, addr_ok
        config = self.config
        rng_random = self.rng.random
        bad = self._bad.get(link, False)
        if bad:
            if rng_random() < config.p_bad_to_good:
                bad = False
        elif rng_random() < config.p_good_to_bad:
            bad = True
            self.transitions_to_bad += 1
        self._bad[link] = bad
        fer = config.fer_bad if bad else config.fer_good
        hit = rng_random() < fer  # always one loss draw: stable sequence
        if hit and not corrupted:
            corrupted = True
            addr_ok = (
                rng_random() < self.addr_dst_survival
                and rng_random() < self.addr_src_survival
            )
            self.corrupted_frames += 1
            if self.obs is not None:
                self.obs.inc("faults.channel.corrupted_frames")
        return corrupted, addr_ok
