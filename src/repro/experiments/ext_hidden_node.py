"""Extension: the hidden-terminal triangle under the SINR channel model.

The paper's topologies keep every station inside carrier-sense range, so the
pairwise reach-list medium suffices.  The classic failure mode of 802.11
hotspots is the *hidden terminal*: two stations that cannot sense each other
uplink to one AP, their data frames overlap at the AP, and without RTS/CTS
goodput collapses.  This experiment runs that triangle on the ``sinr``
channel model — where corruption is decided by the aggregate
signal-to-interference-plus-noise margin rather than a pairwise power ratio
— and on the ``pairwise`` model for comparison, with RTS/CTS off and on.

Expected shape (the acceptance check for the channel-model seam): with
RTS/CTS off, both senders transmit blind and total goodput collapses; with
RTS/CTS on, the AP's CTS sets the hidden sender's NAV and total goodput
recovers severalfold.  The PHY is 802.11a, whose 6 Mbps control rate keeps
the handshake cheap enough for the recovery to be the classic ~3-4x.
"""

from __future__ import annotations

from repro.campaign import builders
from repro.experiments.common import RunSettings, experiment_api, seed_job
from repro.stats import ExperimentResult, median_over_seeds

#: Channel models compared; "sinr" is the one this topology exists for.
CHANNEL_MODELS = ("sinr", "pairwise")


@experiment_api
def run(settings: RunSettings) -> ExperimentResult:
    """Per-sender and total goodput, RTS/CTS off vs on, per channel model."""
    result = ExperimentResult(
        name="Extension: hidden-terminal triangle (SINR channel model)",
        description=(
            "Two saturated UDP uplinks from mutually-hidden senders to one "
            "AP (55 m / 99 m ranges, 802.11a).  Without RTS/CTS the frames "
            "overlap at the AP and the SINR margin corrupts both; RTS/CTS "
            "recovers the channel.  The pairwise rows are the reach-list "
            "medium's answer to the same topology."
        ),
        columns=[
            "channel",
            "rts",
            "goodput_S0",
            "goodput_S1",
            "goodput_total",
            "cw_S0",
            "cw_S1",
        ],
    )
    for channel in CHANNEL_MODELS:
        for rts in (False, True):
            med = median_over_seeds(
                seed_job(
                    builders.hidden_node,
                    duration_s=settings.duration_s,
                    rts=rts,
                    channel=channel,
                ),
                settings.seeds,
            )
            result.add_row(
                channel=channel,
                rts=float(rts),
                goodput_S0=med["goodput_S0"],
                goodput_S1=med["goodput_S1"],
                goodput_total=med["goodput_total"],
                cw_S0=med["cw_S0"],
                cw_S1=med["cw_S1"],
            )
    return result
