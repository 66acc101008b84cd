"""Models substituting for the paper's hardware testbed (Section VI).

The paper's testbed was four Fedora PCs with NetGear WAG511 cards running
MadWifi.  We cannot run that hardware, so each testbed experiment is
reproduced by a model that exercises the same mechanism:

* :mod:`repro.testbed.corruption` — Monte-Carlo + analytic model of MAC
  address survival in corrupted frames (Table I): the feasibility argument
  for fake ACKs.
* :mod:`repro.testbed.rssi` — a 16-node office RSSI measurement model with
  per-link medians and small temporal jitter (Figures 21-22): the
  feasibility argument for RSSI-based spoofed-ACK detection.

The MadWifi driver modifications the authors used for Tables VI-IX (disable
MAC retransmissions toward a victim; clamp CWmax=CWmin toward the greedy
flow; inject inflated-NAV control frames) are applied to the simulated MAC
by the ``testbed_pairs`` and ``testbed_shared_sender`` families of
:mod:`repro.campaign.builders`.
"""

from repro.testbed.corruption import (
    CorruptionBreakdown,
    address_survival_analytic,
    measure_address_survival,
)
from repro.testbed.rssi import RssiCampaign, RssiSample, roc_curve

__all__ = [
    "CorruptionBreakdown",
    "address_survival_analytic",
    "measure_address_survival",
    "RssiCampaign",
    "RssiSample",
    "roc_curve",
]
