"""Random-error frame loss model, calibrated to the paper's Table III.

The paper injects random errors of rate "BER" in ns-2.  Back-solving the
paper's Table III shows ns-2's error model applied the rate per *byte*,
over the frame body plus a 24-byte PLCP-preamble equivalent: at rate 2e-4 an
ACK/CTS FER of 7.519e-3 corresponds to exactly 38 byte-units (14-byte frame +
24), and the RTS FER of 8.762e-3 to 44 units (20 + 24).  We adopt the same
semantic — ``FER = 1 - (1 - rate)^(size_bytes + plcp)`` — so that the
loss-rate axes of Figures 11-17 and 24 line up with the paper's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import lru_cache

#: PLCP preamble + header expressed in the byte-units of ns-2's error model
#: (192 us at 1 Mbps = 24 bytes for 802.11b long preamble).
PLCP_BYTES = 24


def frame_error_rate(ber: float, size_bytes: int, plcp_bytes: int = PLCP_BYTES) -> float:
    """FER of a ``size_bytes`` frame under independent per-byte errors.

    ``ber`` is the paper's error rate (applied per byte-unit, see module
    docstring); reproduces the paper's Table III for the standard frames.
    Memoized: a scenario uses a handful of (BER, size) pairs but rolls them
    per frame, so the ``pow`` is looked up, not recomputed (the closed form
    is :func:`frame_error_rate_formula`, pinned to the cache by
    ``tests/test_phy_error.py``).
    """
    if ber < 0 or ber > 1:
        raise ValueError(f"BER must be in [0, 1], got {ber}")
    if size_bytes < 0:
        raise ValueError(f"frame size must be non-negative, got {size_bytes}")
    return _fer_cached(ber, size_bytes, plcp_bytes)


def frame_error_rate_formula(
    ber: float, size_bytes: int, plcp_bytes: int = PLCP_BYTES
) -> float:
    """The uncached closed form — the reference the lookup table must match."""
    return 1.0 - (1.0 - ber) ** (size_bytes + plcp_bytes)


@lru_cache(maxsize=4096)
def _fer_cached(ber: float, size_bytes: int, plcp_bytes: int) -> float:
    return frame_error_rate_formula(ber, size_bytes, plcp_bytes)


@dataclass
class BitErrorModel:
    """Per-link BER table with a default, used by :class:`repro.phy.Medium`.

    Control/data frames are corrupted independently with probability
    ``frame_error_rate(ber, size)``.  A direct per-link *frame* error rate can
    also be set (used for Table V's "data error rate 0.2/0.5/0.8" scenarios);
    it applies to data frames only, leaving short control frames clean, which
    mirrors how loss was induced in the paper's experiments.

    Two derived values are kept as plain attributes for the per-frame path,
    outside the dataclass fields (so :func:`repro.runtime.canonical`, ``==``
    and pickles never see them), and are rebuilt by every ``set_*`` method:
    :attr:`trivial` and ``_plans``, the memo of :meth:`corruption_plan` per
    ``(src, dst, size_bytes, is_data, rate)``.  Change the loss tables only
    through the ``set_*`` methods.
    """

    default_ber: float = 0.0
    _link_ber: dict[tuple[str, str], float] = field(default_factory=dict)
    _link_fer: dict[tuple[str, str], float] = field(default_factory=dict)
    # Per-link, per-PHY-rate BER: higher modulations need more SNR, so the
    # same link gets lossier as a rate-adapting sender steps up.  Used by the
    # auto-rate extension; falls back to the rate-independent tables above.
    _rate_ber: dict[tuple[str, str], dict[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._tables_changed()

    def _tables_changed(self) -> None:
        """Forget every memoized plan and recompute :attr:`trivial`."""
        self._plans: dict[tuple, float | None] = {}
        #: True when no link can ever corrupt a frame (no RNG draw needed):
        #: the clean-channel fast path, since NAV-inflation scenarios
        #: configure no error model at all.
        self.trivial: bool = not (
            self._link_fer or self._link_ber or self._rate_ber or self.default_ber
        )

    def __getstate__(self) -> dict:
        """Pickle only the declared fields, never the plan memo."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tables_changed()

    def set_ber(self, src: str, dst: str, ber: float) -> None:
        """Set the bit error rate of the directed link ``src -> dst``."""
        if not 0 <= ber <= 1:
            raise ValueError(f"BER must be in [0, 1], got {ber}")
        self._link_ber[(src, dst)] = ber
        self._tables_changed()

    def set_ber_symmetric(self, a: str, b: str, ber: float) -> None:
        """Set the same BER in both directions between ``a`` and ``b``."""
        self.set_ber(a, b, ber)
        self.set_ber(b, a, ber)

    def set_data_fer(self, src: str, dst: str, fer: float) -> None:
        """Set a direct data-frame error rate for the link ``src -> dst``."""
        if not 0 <= fer <= 1:
            raise ValueError(f"FER must be in [0, 1], got {fer}")
        self._link_fer[(src, dst)] = fer
        self._tables_changed()

    def set_rate_profile(
        self, src: str, dst: str, ber_by_rate: dict[float, float]
    ) -> None:
        """Set per-rate BERs for a link (e.g. clean at 1-2 Mbps, lossy at 11).

        Only consulted for frames that carry an explicit PHY rate (data frames
        from a rate-adapting sender); control frames at the basic rate use the
        profile's lowest-rate entry when present.
        """
        for rate, ber in ber_by_rate.items():
            if rate <= 0:
                raise ValueError(f"rate must be positive, got {rate}")
            if not 0 <= ber <= 1:
                raise ValueError(f"BER must be in [0, 1], got {ber}")
        self._rate_ber[(src, dst)] = dict(ber_by_rate)
        self._tables_changed()

    def ber(self, src: str, dst: str, rate: float | None = None) -> float:
        """Effective error rate of a link, honoring any per-rate profile."""
        profile = self._rate_ber.get((src, dst))
        if profile is not None:
            if rate is not None and rate in profile:
                return profile[rate]
            if rate is None and profile:
                return profile[min(profile)]  # basic-rate control frames
        return self._link_ber.get((src, dst), self.default_ber)

    def is_corrupted(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        is_data: bool,
        rng: random.Random,
        rate: float | None = None,
    ) -> bool:
        """Roll whether a frame on ``src -> dst`` arrives corrupted."""
        key = (src, dst, size_bytes, is_data, rate)
        plans = self._plans
        p = plans[key] if key in plans else self.corruption_plan(*key)
        return p is not None and rng.random() < p

    def corruption_plan(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        is_data: bool,
        rate: float | None = None,
    ) -> float | None:
        """The draw :meth:`is_corrupted` makes, as plain data.

        Returns ``None`` when the frame is clean *without consuming a
        uniform* (no error configured, or a control frame on a
        ``set_data_fer`` link), otherwise the probability ``p`` such that the
        frame is corrupted iff the next uniform is ``< p``.  The distinction
        matters for the RNG stream: a link with ``fer=0.0`` set explicitly
        still consumes one draw per data frame (``p = 0.0``).

        Memoized in ``_plans``; :meth:`is_corrupted` reads the memo itself
        and calls this only on a miss.
        """
        key = (src, dst, size_bytes, is_data, rate)
        if key in self._plans:
            return self._plans[key]
        fer = self._link_fer.get((src, dst))
        if fer is not None:
            plan = fer if is_data else None
        else:
            ber = self.ber(src, dst, rate)
            plan = None if ber <= 0.0 else frame_error_rate(ber, size_bytes)
        self._plans[key] = plan
        return plan


def set_ber_all_pairs(model: "BitErrorModel", names: list[str], ber: float) -> None:
    """Set the same BER on every directed link among ``names``."""
    for a in names:
        for b in names:
            if a != b:
                model.set_ber(a, b, ber)
