"""Figure 4: two competing TCP flows while GR inflates NAV (802.11b).

Four variants, matching the paper's subfigures: NAV inflated on (a) CTS only,
(b) RTS+CTS (the RTS carries the greedy receiver's TCP ACKs), (c) ACK only,
(d) all frames.  Inflating everything dominates the medium from ~2 ms.
"""

from __future__ import annotations

from typing import Iterable

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.mac.frames import FrameKind
from repro.phy.params import PhyParams
from repro.stats import ExperimentResult, median_over_seeds

FULL_NAV_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 31.0)
QUICK_NAV_MS = (0.0, 2.0, 10.0, 31.0)

VARIANTS: dict[str, tuple[FrameKind, ...]] = {
    "cts": (FrameKind.CTS,),
    "rts_cts": (FrameKind.RTS, FrameKind.CTS),
    "ack": (FrameKind.ACK,),
    "all": (FrameKind.RTS, FrameKind.CTS, FrameKind.DATA, FrameKind.ACK),
}


def sweep(
    settings: RunSettings,
    phy: PhyParams | None,
    name: str,
    description: str,
) -> ExperimentResult:
    """Shared implementation for Figures 4 (802.11b) and 5 (802.11a)."""
    nav_values = QUICK_NAV_MS if settings.is_quick else FULL_NAV_MS
    result = ExperimentResult(
        name=name,
        description=description,
        columns=["variant", "nav_inflation_ms", "goodput_NR", "goodput_GR"],
    )
    for variant, frames in VARIANTS.items():
        for nav_ms in nav_values:
            med = median_over_seeds(
                seed_job(
                    builders.nav_pairs,
                    duration_s=settings.duration_s,
                    transport="tcp",
                    phy=phy,
                    nav_inflation_us=nav_ms * 1000.0,
                    inflate_frames=frames,
                ),
                settings.seeds,
            )
            result.add_row(
                variant=variant,
                nav_inflation_ms=nav_ms,
                goodput_NR=med["goodput_R0"],
                goodput_GR=med["goodput_R1"],
            )
    return result


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Reproduce this artifact; quick-mode settings shrink sweeps/durations."""
    return sweep(
        settings,
        phy=None,
        name="Figure 4",
        description=(
            "Goodput of two competing TCP flows NS-NR and GS-GR while GR "
            "inflates NAV on CTS / RTS+CTS / ACK / all frames (802.11b)"
        ),
    )
