"""Telemetry aggregation across runs: fold many snapshots into one.

The fleet tier captures one :class:`TelemetrySnapshot` per campaign point
(the representative-run snapshot stored in each point's result);
:func:`merge_snapshots` folds any number of them into a single fleet-wide
view.  Semantics follow the metric kinds:

* counters   — summed (event counts accumulate across runs);
* gauges     — summed too: every gauge the sweep writes is a set-semantics
  *total* of one run (events processed, frames sent, MacStats totals), and
  the sum over disjoint runs is the fleet total.  Last-write or averaging
  would silently misreport whichever runs came first;
* histograms — per-bucket occurrence counts summed.

Snapshots with mismatched ``schema_version`` refuse to merge — aggregating
across schema changes would produce silently wrong keys.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.snapshot import SCHEMA_VERSION, TelemetrySnapshot


def merge_snapshots(snapshots: Iterable[TelemetrySnapshot]) -> TelemetrySnapshot:
    """Fold snapshots into one (see module docstring for the semantics).

    Raises ``ValueError`` on an empty iterable or on a ``schema_version``
    mismatch.  The input order never matters: every fold is a commutative
    sum, so a merged fleet snapshot is independent of shard completion order.
    """
    merged = TelemetrySnapshot()
    count = 0
    for snapshot in snapshots:
        if snapshot.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge telemetry schema_version {snapshot.schema_version!r} "
                f"(this code merges version {SCHEMA_VERSION})"
            )
        count += 1
        for key, value in snapshot.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        for key, value in snapshot.gauges.items():
            merged.gauges[key] = merged.gauges.get(key, 0.0) + value
        for key, hist in snapshot.histograms.items():
            target = merged.histograms.setdefault(key, {})
            for bucket, occurrences in hist.items():
                target[bucket] = target.get(bucket, 0) + occurrences
    if count == 0:
        raise ValueError("cannot merge zero telemetry snapshots")
    merged.meta = {"merged_from": count}
    return merged
