"""Schema-versioned telemetry snapshots and the end-of-run scenario sweep.

A :class:`TelemetrySnapshot` is the serializable view of one
:class:`repro.obs.MetricsRegistry`: plain dicts of floats, stable key order,
an explicit ``schema_version``, and a JSON round-trip.  Snapshots ride on
:class:`repro.stats.ExperimentResult` and in campaign point results.

Key naming (DESIGN.md §10): ``layer.station.metric`` with at least three
dot-separated segments.  Live counters accumulate during the run; the gauge
sweep (:func:`sweep_scenario`) runs once per ``Scenario.run`` and copies
set-semantics values (MacStats totals, engine counters, detection counts) so
calling ``run`` twice never double-counts them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.scenario import Scenario
    from repro.obs.registry import MetricsRegistry

#: Version of the snapshot schema.  Bump when keys or structure change shape.
SCHEMA_VERSION = 1

_SECTIONS = ("counters", "gauges", "histograms")


@dataclass
class TelemetrySnapshot:
    """Frozen registry state: counters/gauges/histograms plus run metadata."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: histogram key -> {str(bucket) -> occurrence count}
    histograms: dict[str, dict[str, int]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -------------------------------------------------------- serialization --

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "meta": self.meta,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TelemetrySnapshot":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported telemetry schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return TelemetrySnapshot(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={k: dict(v) for k, v in data.get("histograms", {}).items()},
            meta=dict(data.get("meta", {})),
            schema_version=version,
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TelemetrySnapshot":
        return TelemetrySnapshot.from_dict(json.loads(text))

    # --------------------------------------------------------------- views ---

    def stations(self) -> list[str]:
        """Sorted station segment of every key (second dot segment)."""
        seen = set()
        for section in _SECTIONS:
            for key in getattr(self, section):
                parts = key.split(".")
                if len(parts) >= 3:
                    seen.add(parts[1])
        return sorted(seen)

    def layers(self) -> list[str]:
        """Sorted layer segment of every key (first dot segment)."""
        seen = set()
        for section in _SECTIONS:
            for key in getattr(self, section):
                seen.add(key.split(".", 1)[0])
        return sorted(seen)

    def rows(self) -> list[tuple[str, str, str, str, str]]:
        """Flatten to (layer, station, metric, kind, value) rows for tables."""
        out: list[tuple[str, str, str, str, str]] = []
        for kind, section in (("counter", self.counters), ("gauge", self.gauges)):
            for key, value in section.items():
                layer, station, metric = _split_key(key)
                out.append((layer, station, metric, kind, _fmt_value(value)))
        for key, hist in self.histograms.items():
            layer, station, metric = _split_key(key)
            total = sum(hist.values())
            compact = ", ".join(f"{b}:{n}" for b, n in list(hist.items())[:8])
            if len(hist) > 8:
                compact += ", ..."
            out.append((layer, station, metric, "histogram", f"n={total} [{compact}]"))
        out.sort(key=lambda row: (row[0], row[1], row[2]))
        return out

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


def _split_key(key: str) -> tuple[str, str, str]:
    parts = key.split(".", 2)
    while len(parts) < 3:
        parts.append("")
    return parts[0], parts[1], parts[2]


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


# ------------------------------------------------------------- validation ---


def validate_snapshot(snapshot: TelemetrySnapshot) -> list[str]:
    """Return a list of schema problems (empty = valid).

    Checks: version match, ``layer.station.metric`` key shape, numeric
    values, non-negative integer histogram bucket counts.
    """
    problems: list[str] = []
    if snapshot.schema_version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {snapshot.schema_version!r} != {SCHEMA_VERSION}"
        )
    for section in ("counters", "gauges"):
        for key, value in getattr(snapshot, section).items():
            if key.count(".") < 2:
                problems.append(f"{section} key {key!r} is not layer.station.metric")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{section}[{key!r}] is not numeric: {value!r}")
    for key, hist in snapshot.histograms.items():
        if key.count(".") < 2:
            problems.append(f"histograms key {key!r} is not layer.station.metric")
        if not isinstance(hist, dict):
            problems.append(f"histograms[{key!r}] is not a dict: {hist!r}")
            continue
        for bucket, count in hist.items():
            if not isinstance(bucket, str):
                problems.append(f"histograms[{key!r}] bucket {bucket!r} is not str")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                problems.append(
                    f"histograms[{key!r}][{bucket!r}] is not a non-negative int"
                )
    return problems


# ---------------------------------------------------------- scenario sweep --


def sweep_scenario(registry: "MetricsRegistry", scenario: "Scenario") -> None:
    """Copy end-of-run state into gauges (set semantics: idempotent).

    Live hooks count events as they happen; everything that is already
    accumulated elsewhere (MacStats, engine counters, the detection report)
    is swept here as gauges so re-running ``Scenario.run`` cannot double
    count it.
    """
    gauge = registry.gauge
    sim = scenario.sim
    # sim.engine.*: events_processed counts callbacks, one per hearer even
    # where a group of equal-delay hearers shares a heap entry;
    # heap_high_water and pending_at_end count heap entries, so a group
    # counts once each way (``repro.sim.engine``).
    gauge("sim.engine.events_processed", float(sim.events_processed))
    gauge("sim.engine.events_cancelled", float(sim.events_cancelled))
    gauge("sim.engine.compactions", float(sim.compactions))
    gauge("sim.engine.heap_high_water", float(sim.heap_high_water))
    gauge("sim.engine.pending_at_end", float(sim.pending_events))
    gauge("phy.medium.frames_sent", float(scenario.medium.frames_sent))
    for name, mac in scenario.macs.items():
        for metric, value in mac.stats.as_metrics().items():
            gauge(f"mac.{name}.{metric}", value)
    detections: Counter = Counter()
    for event in scenario.report.events:
        detections[(event.observer, event.detector)] += 1
    for (observer, detector), count in sorted(detections.items()):
        gauge(f"detect.{observer}.{detector}", float(count))
