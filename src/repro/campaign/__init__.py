"""Declarative scenario specs and the sweep-campaign runner.

The paper's evaluation — and most extension studies — are grids over a
handful of knobs (number of GRs/NRs, NAV inflation, BER, GRC on/off).  This
package makes those grids first-class: a TOML spec names a scenario builder,
fixed parameters, sweep axes and seeds; the runner expands the Cartesian
grid, fans every seeded point out through :mod:`repro.runtime`, records a
resumable manifest, and aggregates a tidy results table.  See
DESIGN.md ("Campaign subsystem") and ``examples/campaigns/``.
"""

from repro.campaign.builders import BUILDERS, builder_names, get_builder, register
from repro.campaign.manifest import (
    DONE,
    FAILED,
    PENDING,
    Manifest,
    ManifestError,
    PointState,
    manifest_path,
)
from repro.campaign.runner import (
    CampaignError,
    CampaignRun,
    aggregate,
    default_out_dir,
    load_point_results,
    metrics_fingerprint,
    run_campaign,
    write_reports,
)
from repro.campaign.spec import (
    CampaignSpec,
    SpecError,
    expand_grid,
    load_spec,
    point_id,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)

__all__ = [
    "BUILDERS",
    "CampaignError",
    "CampaignRun",
    "CampaignSpec",
    "DONE",
    "FAILED",
    "Manifest",
    "ManifestError",
    "PENDING",
    "PointState",
    "SpecError",
    "aggregate",
    "builder_names",
    "default_out_dir",
    "expand_grid",
    "get_builder",
    "load_point_results",
    "load_spec",
    "manifest_path",
    "metrics_fingerprint",
    "point_id",
    "register",
    "run_campaign",
    "spec_from_dict",
    "spec_hash",
    "spec_to_dict",
    "write_reports",
]
