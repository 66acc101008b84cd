"""Run settings and the experiment entrypoint shared by every experiment.

Every per-figure module exposes ``run = experiment_api(body)``, where
``body(settings: RunSettings) -> ExperimentResult`` sweeps one of the
scenario families in :mod:`repro.campaign.builders` over seeds with
``median_over_seeds(seed_job(builders.<name>, ...), settings.seeds)``.
The builders are the only scenario runners; this module holds what the
experiments share around them.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.runtime import seed_job
from repro.stats.summary import ExperimentResult

__all__ = [
    "RunSettings",
    "experiment_api",
    "seed_job",
]

#: Default run length and seeds: the paper uses 5 repetitions per scenario.
FULL_DURATION_S = 5.0
FULL_SEEDS = (1, 2, 3, 4, 5)
QUICK_DURATION_S = 1.5
QUICK_SEEDS = (1, 2)


@dataclass(frozen=True)
class RunSettings:
    """Run length / repetition / telemetry settings shared by all experiments.

    The single argument of every experiment's ``run(settings)`` entrypoint.
    ``mode`` selects the full paper-scale sweep ("full") or the shrunk CI
    variant ("quick"); experiments branch on :attr:`is_quick` instead of a
    loose ``quick`` bool.  ``telemetry=True`` runs the experiment inside an
    ambient :func:`repro.obs.capture` and attaches the aggregated
    :class:`~repro.obs.TelemetrySnapshot` to the returned
    :class:`~repro.stats.summary.ExperimentResult`.
    """

    duration_s: float = FULL_DURATION_S
    seeds: Sequence[int] = FULL_SEEDS
    mode: str = "full"
    telemetry: bool = False
    #: Channel model name ("pairwise", "sinr") or None to inherit the ambient
    #: selection (:func:`repro.phy.channel.use_channel`).  Every scenario
    #: the experiment builds picks it up — runner signatures stay unchanged
    #: because selection is ambient — and runners that pin topology knobs
    #: via ``ChannelConfig(ranges=...)`` (model left None) still honor it.
    channel: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full", "quick"):
            raise ValueError(f"mode must be 'full' or 'quick', got {self.mode!r}")
        if self.channel is not None:
            from repro.phy.channel import CHANNEL_MODELS, channel_names

            if self.channel not in CHANNEL_MODELS:
                raise KeyError(
                    f"unknown channel model {self.channel!r}; "
                    f"known models: {channel_names()}"
                )
        object.__setattr__(self, "seeds", tuple(self.seeds))

    @property
    def is_quick(self) -> bool:
        """True for the shrunk CI variant (fewer seeds, shorter runs)."""
        return self.mode == "quick"

    def replace(self, **overrides: Any) -> "RunSettings":
        """A copy with the given fields overridden (frozen-safe)."""
        return dataclasses.replace(self, **overrides)

    @staticmethod
    def quick() -> "RunSettings":
        return RunSettings(QUICK_DURATION_S, QUICK_SEEDS, mode="quick")

    @staticmethod
    def for_mode(quick: bool) -> "RunSettings":
        return RunSettings.quick() if quick else RunSettings()


def experiment_api(
    fn: "Callable[[RunSettings], ExperimentResult]",
) -> "Callable[..., ExperimentResult]":
    """Wrap a ``fn(settings) -> ExperimentResult`` experiment body as the
    public ``run()`` entrypoint.

    ``run()`` with no argument means ``RunSettings()`` (the full sweep).
    When ``settings.telemetry`` is set, the wrapper runs the body inside an
    ambient :func:`repro.obs.capture` so every
    :class:`~repro.net.scenario.Scenario` the experiment builds reports into
    one registry; the snapshot lands on ``result.telemetry``.  The unwrapped
    body stays reachable as ``run.__wrapped__``.
    """

    def _body(resolved: RunSettings) -> ExperimentResult:
        if not resolved.telemetry:
            return fn(resolved)
        from repro.obs import MetricsRegistry, capture

        registry = MetricsRegistry()
        with capture(registry):
            result = fn(resolved)
        result.telemetry = registry.snapshot(experiment=fn.__module__.rsplit(".", 1)[-1])
        return result

    @functools.wraps(fn)
    def run(settings: RunSettings | None = None) -> ExperimentResult:
        resolved = settings if settings is not None else RunSettings()
        if resolved.channel is None:
            return _body(resolved)
        from repro.phy.channel import use_channel

        with use_channel(resolved.channel):
            return _body(resolved)

    return run
