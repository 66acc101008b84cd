"""Declarative scenario specs and the sweep-campaign runner.

The paper's evaluation — and most extension studies — are grids over a
handful of knobs (number of GRs/NRs, NAV inflation, BER, GRC on/off).  This
package makes those grids first-class: a TOML spec names a scenario builder,
fixed parameters, sweep axes and seeds; the runner expands the Cartesian
grid, fans every seeded point out through :mod:`repro.runtime`, records a
resumable manifest, and aggregates a tidy results table.  See
DESIGN.md ("Campaign subsystem") and ``examples/campaigns/``.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".builders": ("BUILDERS", "builder_names", "get_builder", "register"),
    ".manifest": (
        "DONE", "FAILED", "PENDING", "Manifest", "ManifestError", "PointState",
        "manifest_path",
    ),
    ".runner": (
        "CampaignError", "CampaignRun", "aggregate", "default_out_dir",
        "load_point_results", "metrics_fingerprint", "run_campaign", "write_reports",
    ),
    ".spec": (
        "CampaignSpec", "SpecError", "expand_grid", "load_spec", "point_id",
        "spec_from_dict", "spec_hash", "spec_to_dict",
    ),
})
