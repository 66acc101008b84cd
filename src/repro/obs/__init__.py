"""repro.obs: zero-cost-when-disabled telemetry for every layer.

The paper's GRC detectors are observability arguments — overheard-NAV
validation, RSSI deviation and MAC-vs-application loss consistency all
presume trustworthy per-station, per-layer counters.  This package provides
that as a first-class subsystem:

* :class:`MetricsRegistry` — counters / gauges / histograms keyed
  ``layer.station.metric``.
* :func:`capture` / :func:`current_registry` — ambient scope;
  :class:`repro.net.scenario.Scenario` auto-attaches the active registry.
* :class:`TelemetrySnapshot` — schema-versioned frozen view with a JSON
  round-trip, attached to :class:`repro.stats.ExperimentResult` and campaign
  point results; :func:`validate_snapshot` checks the schema.

With no registry attached every instrumentation hook is a single
``if self.obs is not None`` test on a plain attribute: golden traces stay
byte-identical (tests/test_obs.py, tests/test_golden_traces.py) and the
fast-path perf gate holds.
"""

from repro.obs.fleet import merge_snapshots
from repro.obs.registry import MetricsRegistry, capture, current_registry
from repro.obs.snapshot import (
    SCHEMA_VERSION,
    TelemetrySnapshot,
    sweep_scenario,
    validate_snapshot,
)

__all__ = [
    "MetricsRegistry",
    "TelemetrySnapshot",
    "SCHEMA_VERSION",
    "capture",
    "current_registry",
    "merge_snapshots",
    "sweep_scenario",
    "validate_snapshot",
]
