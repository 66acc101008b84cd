"""Periodic/randomised jammer station: undecodable energy on the medium.

The jammer is a bare :class:`~repro.phy.medium.Radio` with no MAC — it does
not carrier-sense, defer or back off; it just transmits.  Its emissions are
:class:`JamFrame` instances, which the fault hook in
:meth:`repro.phy.medium.Radio._on_tx_end` always marks as corrupted with
unreadable addresses, so receivers that lock onto a burst take the EIFS
deferral path and nothing else.  The interesting damage is indirect and
comes entirely from existing medium mechanics:

* a burst overlapping a real reception garbles it (collision),
* everyone in range sees carrier-busy for the burst duration and freezes
  their backoff — exactly what honest stations do, and exactly what greedy
  NAV inflation already exploits.

Timing is deterministic: bursts fire at ``start_us`` and then every
``period_us``, plus an optional uniform jitter drawn from the dedicated
``faults.jammer`` stream (never from the medium's RNG).
"""

from __future__ import annotations

import random
from typing import Any

from repro.faults.plan import JammerConfig
from repro.mac.frames import Frame, FrameKind
from repro.phy.medium import Medium, Radio
from repro.sim.engine import Simulator


class JamFrame(Frame):
    """A burst of meaningless energy; never decodable by construction."""

    __slots__ = ()
    jam = True

    def __init__(self, src: str, size_bytes: int = 0) -> None:
        super().__init__(FrameKind.DATA, src, "__noise__", 0.0, size_bytes)


class Jammer:
    """Schedules jam bursts on the engine for the lifetime of the run."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        config: JammerConfig,
        rng: random.Random,
        obs: Any = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.rng = rng
        self.obs = obs
        self.radio = Radio(medium, config.name, config.position)
        self.bursts = 0
        sim.call_at(config.start_us, self._burst)

    def _burst(self) -> None:
        config = self.config
        if not self.radio.transmitting:  # config guarantees this, but be safe
            self.radio.transmit(JamFrame(config.name), config.burst_us)
            self.bursts += 1
            if self.obs is not None:
                self.obs.inc("faults.jammer.bursts")
                self.obs.inc("faults.jammer.airtime_us", config.burst_us)
        delay = config.period_us
        if config.jitter_us > 0:
            delay += self.rng.random() * config.jitter_us
        self.sim.call_after(delay, self._burst)
