"""Experiment result containers, medians over seeds, and ASCII tables.

The paper runs each scenario 5 times and reports the median goodput; the
helpers here encode that methodology once for all experiments.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.snapshot import TelemetrySnapshot
    from repro.runtime import JobSpec

#: Version of the ExperimentResult JSON schema.  Version 1 predates the
#: ``telemetry`` field; both are accepted by :meth:`ExperimentResult.from_json`.
RESULT_SCHEMA_VERSION = 2


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of empty sequence")
    return statistics.median(values)


def median_over_seeds(run: JobSpec, seeds: Sequence[int]) -> dict[str, float]:
    """Run one job per seed; return the per-key median.

    ``run`` is a pickle-safe :class:`repro.runtime.JobSpec`; execution is
    delegated to :func:`repro.runtime.map_over_seeds`, so the seeds fan out
    across processes (and hit the result cache) when the ambient
    :func:`repro.runtime.execution` context says so.  Results are keyed by
    seed internally, so the median is independent of completion order.
    Every invocation must return the same keys (e.g. per-flow goodput).
    """
    from repro.runtime import map_over_seeds

    per_seed = map_over_seeds(run, seeds)
    outcomes = [per_seed[seed] for seed in per_seed]
    keys = outcomes[0].keys()
    for outcome in outcomes[1:]:
        if outcome.keys() != keys:
            raise ValueError("runs returned inconsistent keys")
    return {key: median([outcome[key] for outcome in outcomes]) for key in keys}


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure, with formatting helpers."""

    name: str
    description: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: JSON schema version of this container (see RESULT_SCHEMA_VERSION).
    schema_version: int = RESULT_SCHEMA_VERSION
    #: Telemetry captured while the experiment ran (``RunSettings.telemetry``),
    #: or None.  Counters aggregate over every simulation the experiment ran.
    telemetry: "TelemetrySnapshot | None" = None

    def add_row(self, **values: Any) -> None:
        """Append one row; every declared column must be present."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self.rows.append(values)

    def series(self, x: str, y: str) -> list[tuple[Any, Any]]:
        """Extract one (x, y) series, e.g. for shape assertions in benches."""
        return [(row[x], row[y]) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def to_text(self) -> str:
        """Render name, description and rows as an ASCII table."""
        header = f"== {self.name} ==\n{self.description}\n"
        cells = [[_fmt(row[c]) for c in self.columns] for row in self.rows]
        return header + format_table(self.columns, cells)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()

    # -------------------------------------------------------- serialization --

    def to_json(self, indent: int | None = None) -> str:
        """Stable JSON encoding (sorted keys, explicit schema version)."""
        doc: dict[str, Any] = {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "columns": self.columns,
            "rows": self.rows,
            "telemetry": self.telemetry.to_dict() if self.telemetry else None,
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`; accepts schema versions 1 and 2."""
        from repro.obs.snapshot import TelemetrySnapshot

        doc = json.loads(text)
        version = doc.get("schema_version", 1)
        if version not in (1, RESULT_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported ExperimentResult schema_version {version!r}"
            )
        telemetry_doc = doc.get("telemetry")
        result = ExperimentResult(
            name=doc["name"],
            description=doc["description"],
            columns=list(doc["columns"]),
            schema_version=RESULT_SCHEMA_VERSION,
            telemetry=(
                TelemetrySnapshot.from_dict(telemetry_doc) if telemetry_doc else None
            ),
        )
        for row in doc.get("rows", []):
            result.add_row(**row)
        return result


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
