"""Channel-model registry and the unified :class:`ChannelConfig`.

A *channel model* decides how concurrent transmissions interact at a
receiver.  Two models ship today:

* ``pairwise`` — the reference reach-list medium
  (:class:`repro.phy.medium.Medium`): binary decode/sense thresholds per
  link, capture decided by the pairwise power ratio of exactly two signals.
  This is the code path every committed golden trace was captured on.
* ``sinr`` — the interference medium (:class:`repro.phy.medium.SinrMedium`):
  each receiver accumulates the power of *all* concurrent transmissions plus
  a noise floor, and a frame survives only while its signal-to-interference-
  plus-noise ratio clears the PHY's per-rate threshold.  Hidden terminals,
  asymmetric links and dense multi-AP hotspots become expressible.

**The equivalence contract** (DESIGN.md §15): the ``pairwise`` model must
replay every committed golden trace byte-for-byte, while ``sinr`` takes its
own golden set and its own result-cache namespace
(:attr:`ChannelConfig.cache_key` is folded into
:func:`repro.runtime.cache.code_version_token`).

Selection is *ambient*: experiment runners and the perf harness build
scenarios deep inside helpers, so the active :class:`ChannelConfig`
travels in a :class:`~contextvars.ContextVar` (:func:`use_channel`) and
``Scenario(channel=...)`` accepts an explicit
override.  A config whose ``model`` is ``None`` *inherits* the ambient
model while pinning its other knobs — internal call sites write
``ChannelConfig(ranges=(55.0, 99.0))`` and still honor ``--channel sinr``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

#: Registered channel model names -> one-line description.  The medium
#: classes themselves are looked up in :mod:`repro.net.scenario` (importing
#: them here would cycle through the phy package).
CHANNEL_MODELS: dict[str, str] = {
    "pairwise": "reference reach-list medium: binary thresholds, pairwise capture "
    "(golden traces captured here)",
    "sinr": "interference medium: aggregate concurrent power + noise floor, "
    "capture by per-rate SINR margin (own golden set)",
}


def channel_names() -> list[str]:
    """Registered channel model names, registration order."""
    return list(CHANNEL_MODELS)


@dataclass(frozen=True)
class GaussianJitter:
    """Picklable RSSI jitter: zero-mean Gaussian in dB on the medium's RNG.

    Replaces the old closure in :class:`repro.net.scenario.Scenario` — a
    lambda cannot cross the process-pool path (PR 1 fan-out), a frozen
    dataclass can.  Draw-identical to the closure it replaces: exactly one
    ``rng.gauss(0.0, sigma)`` per delivered frame.
    """

    sigma_db: float

    def __call__(self, rng: random.Random) -> float:
        return rng.gauss(0.0, self.sigma_db)


@dataclass(frozen=True)
class ChannelConfig:
    """Everything that shapes the wireless channel, as plain frozen data.

    Replaces the scattered ``ranges=`` / ``default_ber=`` /
    ``rssi_jitter_db=`` :class:`~repro.net.scenario.Scenario` kwargs with one
    value that canonicalises for job specs and campaign points.
    """

    #: Channel model name (``"pairwise"`` or ``"sinr"``), or ``None`` to
    #: inherit the model of the ambient selection (:func:`use_channel`)
    #: while keeping this config's other knobs.
    model: str | None = None
    #: ``(comm_range_m, interference_range_m)`` fed to
    #: ``Medium.configure_ranges`` (e.g. the paper's 55 m / 99 m), or None
    #: for the default "everyone decodes everyone" thresholds.
    ranges: tuple[float, float] | None = None
    #: Noise floor in linear power units (``sinr`` model only).  The default
    #: keeps ``sinr_threshold * noise_floor`` well below the reception
    #: threshold of the paper's 55 m communication range (1/55^4 ~ 1.1e-7),
    #: so the zero-interference SINR decision reduces to the pairwise
    #: decodability decision (the §15 equivalence contract).
    noise_floor: float = 1e-10
    #: Path-loss exponent for :class:`repro.phy.propagation.PathLossModel`.
    path_loss_exponent: float = 4.0
    #: Base SINR margin for the ``sinr`` model (linear).  ``None`` uses the
    #: PHY's ``capture_threshold`` so both models share one capture knob.
    capture_margin: float | None = None
    #: Default bit-error rate for :class:`repro.phy.error.BitErrorModel`.
    default_ber: float = 0.0
    #: Standard deviation (dB) of Gaussian RSSI jitter; 0 disables jitter.
    rssi_jitter_db: float = 0.0

    def __post_init__(self) -> None:
        if self.model is not None and self.model not in CHANNEL_MODELS:
            raise KeyError(
                f"unknown channel model {self.model!r}; "
                f"known models: {channel_names()}"
            )
        if not self.noise_floor > 0:
            raise ValueError(f"noise_floor must be > 0, got {self.noise_floor}")
        if not self.path_loss_exponent > 0:
            raise ValueError(
                f"path_loss_exponent must be > 0, got {self.path_loss_exponent}"
            )
        if self.capture_margin is not None and self.capture_margin < 1.0:
            raise ValueError(
                f"capture_margin must be >= 1 (linear), got {self.capture_margin}"
            )
        if not 0.0 <= self.default_ber < 1.0:
            raise ValueError(f"default_ber must be in [0, 1), got {self.default_ber}")
        if self.rssi_jitter_db < 0:
            raise ValueError(
                f"rssi_jitter_db must be >= 0, got {self.rssi_jitter_db}"
            )
        if self.ranges is not None:
            comm, interference = self.ranges
            if not 0 < comm <= interference:
                raise ValueError(
                    "ranges must satisfy 0 < comm_range <= interference_range, "
                    f"got {self.ranges}"
                )

    @property
    def cache_key(self) -> str:
        """Token folded into the result-cache version for this channel.

        The ``pairwise`` model is the reference the existing caches were
        populated under, so it keeps the bare token; any other model gets
        its own namespace — results computed under different interference
        semantics must never be served interchangeably.
        """
        model = self.model
        return "" if model in (None, "pairwise") else f"channel={model}"

    def jitter(self) -> GaussianJitter | None:
        """The RSSI-jitter callable for this config, or None when disabled."""
        if self.rssi_jitter_db > 0:
            return GaussianJitter(self.rssi_jitter_db)
        return None


#: The default channel: the reference pairwise medium with the historical
#: Scenario defaults (no ranges, no BER, no jitter).
DEFAULT_CHANNEL = ChannelConfig(model="pairwise")

#: The ambient channel: what :class:`~repro.net.scenario.Scenario` builds
#: when no explicit ``channel=`` is given.
_ACTIVE: ContextVar[ChannelConfig] = ContextVar("channel", default=DEFAULT_CHANNEL)


def current_channel() -> ChannelConfig:
    """The ambient channel (``pairwise`` unless inside :func:`use_channel`)."""
    return _ACTIVE.get()


def resolve_channel(channel: "ChannelConfig | str | None") -> ChannelConfig:
    """Accept a :class:`ChannelConfig`, a model name, or None (the ambient).

    A config with ``model=None`` inherits the ambient *model* but keeps its
    own knobs — that is how internal call sites pin e.g. the paper's 55/99 m
    ranges without also pinning the interference semantics.
    """
    if channel is None:
        return current_channel()
    if isinstance(channel, str):
        if channel not in CHANNEL_MODELS:
            raise KeyError(
                f"unknown channel model {channel!r}; known models: {channel_names()}"
            )
        ambient = current_channel()
        if ambient.model == channel:
            return ambient  # keep the ambient config's knobs
        return replace(ambient, model=channel)
    if not isinstance(channel, ChannelConfig):
        raise TypeError(
            "channel must be ChannelConfig, model name or None, "
            f"got {type(channel).__name__}"
        )
    if channel.model is None:
        return replace(channel, model=current_channel().model)
    return channel


@contextmanager
def use_channel(channel: "ChannelConfig | str | None") -> Iterator[ChannelConfig]:
    """Select the ambient channel for the duration of the ``with`` block.

    >>> from repro.phy.channel import use_channel, current_channel
    >>> with use_channel("sinr"):
    ...     current_channel().model
    'sinr'
    >>> current_channel().model
    'pairwise'
    """
    resolved = resolve_channel(channel)
    if resolved.model is None:  # pragma: no cover - resolve always pins a model
        resolved = replace(resolved, model=DEFAULT_CHANNEL.model)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


__all__ = [
    "CHANNEL_MODELS",
    "ChannelConfig",
    "DEFAULT_CHANNEL",
    "GaussianJitter",
    "channel_names",
    "current_channel",
    "resolve_channel",
    "use_channel",
]
