"""Declarative campaign specifications: what to sweep, how, and over which seeds.

A campaign names a scenario *builder* from :mod:`repro.campaign.builders`,
fixes some of its parameters, sweeps others over a Cartesian grid (plus
optional zipped axes), and runs every grid point over a set of seeds for a
fixed duration.  Specs are plain data — a TOML file or a dict — so they can
be versioned next to the figures they reproduce::

    [campaign]
    name = "fig1_nav_udp"
    builder = "nav_pairs"
    seeds = [1, 2, 3, 4, 5]
    duration_s = 5.0

    [params]                  # fixed for every point
    transport = "udp"

    [sweep]                   # Cartesian axes (rightmost varies fastest)
    n_greedy = [0, 1]

    [zip]                     # axes advanced in lockstep (equal lengths)
    alpha            = [0, 3, 6]
    nav_inflation_us = [0.0, 300.0, 600.0]

    [quick]                   # optional CI-mode overrides
    seeds = [1, 2]
    duration_s = 1.5

Validation happens at load time against the builder's actual signature, so a
typo in a parameter name fails with a readable error before any simulation
runs.  :func:`expand_grid` turns a spec into the deterministic, order-stable
list of per-point parameter dicts; :func:`spec_hash` digests the resolved
spec for the run manifest (the ``--resume`` fence).
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.builders import builder_names, get_builder
from repro.phy.profiles import profile_names
from repro.runtime.jobspec import canonical

#: Parameters every builder receives from the campaign engine itself; specs
#: must not try to set them as scenario parameters.
RESERVED_PARAMS = ("seed", "duration_s")

_TOP_LEVEL_TABLES = ("campaign", "params", "sweep", "zip", "quick")
_CAMPAIGN_KEYS = ("name", "builder", "description", "seeds", "duration_s")
_QUICK_KEYS = ("seeds", "duration_s", "params", "sweep", "zip")


class SpecError(ValueError):
    """A campaign spec failed validation; the message says where and why."""


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, resolved campaign description."""

    name: str
    builder: str
    seeds: tuple[int, ...]
    duration_s: float
    params: dict[str, Any] = field(default_factory=dict)
    sweep: dict[str, list[Any]] = field(default_factory=dict)
    zip_axes: dict[str, list[Any]] = field(default_factory=dict)
    description: str = ""
    source: str = "<dict>"

    @property
    def n_points(self) -> int:
        """Size of the expanded grid."""
        n = 1
        for values in self.sweep.values():
            n *= len(values)
        if self.zip_axes:
            n *= len(next(iter(self.zip_axes.values())))
        return n

    def axis_names(self) -> list[str]:
        """Swept parameter names, in expansion order (sweep axes, then zip)."""
        return list(self.sweep) + list(self.zip_axes)


def load_spec(path: str | Path, quick: bool = False) -> CampaignSpec:
    """Parse and validate a TOML campaign spec file."""
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
        raise SpecError(
            "TOML campaign specs need Python 3.11+ (tomllib); "
            "build the spec as a dict and use spec_from_dict() instead"
        ) from None
    path = Path(path)
    if not path.exists():
        raise SpecError(f"campaign spec not found: {path}")
    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{path}: invalid TOML: {exc}") from None
    return spec_from_dict(data, source=str(path), quick=quick)


def spec_from_dict(
    data: Mapping[str, Any], source: str = "<dict>", quick: bool = False
) -> CampaignSpec:
    """Validate a spec given as nested plain data (the TOML document shape).

    ``quick=True`` applies the optional ``[quick]`` overrides (seeds,
    duration, narrowed axes) — the campaign analogue of the experiments'
    ``--quick`` mode.  The returned spec is fully resolved: its hash covers
    exactly what will run.
    """
    where = f"campaign spec {source}"
    if not isinstance(data, Mapping):
        raise SpecError(f"{where}: top level must be a table/dict")
    unknown = sorted(set(data) - set(_TOP_LEVEL_TABLES))
    if unknown:
        raise SpecError(
            f"{where}: unknown top-level table(s) {unknown}; "
            f"expected {list(_TOP_LEVEL_TABLES)}"
        )
    campaign = data.get("campaign")
    if not isinstance(campaign, Mapping):
        raise SpecError(f"{where}: missing [campaign] table")
    unknown = sorted(set(campaign) - set(_CAMPAIGN_KEYS))
    if unknown:
        raise SpecError(
            f"{where}: unknown [campaign] key(s) {unknown}; "
            f"expected {list(_CAMPAIGN_KEYS)}"
        )

    name = campaign.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(f"{where}: [campaign] name must be a non-empty string")
    builder = campaign.get("builder")
    if not isinstance(builder, str) or not builder:
        raise SpecError(f"{where}: [campaign] builder must be a non-empty string")
    description = campaign.get("description", "")
    if not isinstance(description, str):
        raise SpecError(f"{where}: [campaign] description must be a string")

    seeds = _validate_seeds(campaign.get("seeds"), where)
    duration_s = _validate_duration(campaign.get("duration_s"), where)
    params = _validate_table(data.get("params", {}), "params", where)
    sweep = _validate_axes(data.get("sweep", {}), "sweep", where)
    zip_axes = _validate_axes(data.get("zip", {}), "zip", where)

    if quick and "quick" in data:
        q = data["quick"]
        if not isinstance(q, Mapping):
            raise SpecError(f"{where}: [quick] must be a table")
        unknown = sorted(set(q) - set(_QUICK_KEYS))
        if unknown:
            raise SpecError(
                f"{where}: unknown [quick] key(s) {unknown}; expected {list(_QUICK_KEYS)}"
            )
        if "seeds" in q:
            seeds = _validate_seeds(q["seeds"], f"{where} [quick]")
        if "duration_s" in q:
            duration_s = _validate_duration(q["duration_s"], f"{where} [quick]")
        params = _apply_overrides(
            params, _validate_table(q.get("params", {}), "quick.params", where),
            "params", where,
        )
        sweep = _apply_overrides(
            sweep, _validate_axes(q.get("sweep", {}), "quick.sweep", where),
            "sweep", where,
        )
        zip_axes = _apply_overrides(
            zip_axes, _validate_axes(q.get("zip", {}), "quick.zip", where),
            "zip", where,
        )

    _validate_zip_lengths(zip_axes, where)
    _validate_disjoint(params, sweep, zip_axes, where)
    _validate_against_builder(builder, [*params, *sweep, *zip_axes], where)
    _validate_phy_values(params, sweep, zip_axes, where)
    _validate_channel_values(params, sweep, zip_axes, where)

    spec = CampaignSpec(
        name=name,
        builder=builder,
        seeds=seeds,
        duration_s=duration_s,
        params=dict(params),
        sweep={k: list(v) for k, v in sweep.items()},
        zip_axes={k: list(v) for k, v in zip_axes.items()},
        description=description,
        source=source,
    )
    try:  # every value must survive canonicalisation (cache keys, manifest)
        canonical(spec.params)
        canonical(spec.sweep)
        canonical(spec.zip_axes)
    except TypeError as exc:
        raise SpecError(f"{where}: parameter values must be plain data: {exc}") from None
    return spec


# ------------------------------------------------------------ validation ----


def _validate_seeds(raw: Any, where: str) -> tuple[int, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(f"{where}: seeds must be a non-empty list of integers")
    seeds = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{where}: seeds must be integers, got {value!r}")
        seeds.append(value)
    if len(set(seeds)) != len(seeds):
        raise SpecError(f"{where}: duplicate seeds: {seeds}")
    return tuple(seeds)


def _validate_duration(raw: Any, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
        raise SpecError(f"{where}: duration_s must be a positive number, got {raw!r}")
    return float(raw)


def _validate_table(raw: Any, table: str, where: str) -> dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise SpecError(f"{where}: [{table}] must be a table of parameter = value")
    return dict(raw)


def _validate_axes(raw: Any, table: str, where: str) -> dict[str, list[Any]]:
    if not isinstance(raw, Mapping):
        raise SpecError(f"{where}: [{table}] must be a table of parameter = [values]")
    axes: dict[str, list[Any]] = {}
    for key, values in raw.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(
                f"{where}: [{table}] axis {key!r} must be a non-empty list, "
                f"got {values!r}"
            )
        axes[str(key)] = list(values)
    return axes


def _apply_overrides(
    base: dict[str, Any], overrides: dict[str, Any], table: str, where: str
) -> dict[str, Any]:
    """Quick-mode overrides may narrow existing entries, never add new ones
    (a new axis in quick mode would silently change the grid's shape)."""
    unknown = sorted(set(overrides) - set(base))
    if unknown:
        raise SpecError(
            f"{where}: [quick.{table}] overrides unknown key(s) {unknown}; "
            f"quick mode may only narrow existing [{table}] entries"
        )
    merged = dict(base)
    merged.update(overrides)
    return merged


def _validate_zip_lengths(zip_axes: Mapping[str, list[Any]], where: str) -> None:
    lengths = {key: len(values) for key, values in zip_axes.items()}
    if len(set(lengths.values())) > 1:
        raise SpecError(
            f"{where}: [zip] axes must all have the same length, got {lengths}"
        )


def _validate_disjoint(
    params: Mapping[str, Any],
    sweep: Mapping[str, Any],
    zip_axes: Mapping[str, Any],
    where: str,
) -> None:
    tables = {"params": set(params), "sweep": set(sweep), "zip": set(zip_axes)}
    for (name_a, keys_a), (name_b, keys_b) in itertools.combinations(tables.items(), 2):
        overlap = sorted(keys_a & keys_b)
        if overlap:
            raise SpecError(
                f"{where}: parameter(s) {overlap} appear in both "
                f"[{name_a}] and [{name_b}]; each parameter belongs to exactly one"
            )


def _validate_against_builder(builder: str, keys: list[str], where: str) -> None:
    try:
        fn = get_builder(builder)
    except KeyError:
        raise SpecError(
            f"{where}: unknown builder {builder!r}; known builders: {builder_names()}"
        ) from None
    signature = inspect.signature(fn)
    accepts_var_kw = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in signature.parameters.values()
    )
    accepted = sorted(set(signature.parameters) - set(RESERVED_PARAMS))
    for key in keys:
        if key in RESERVED_PARAMS:
            raise SpecError(
                f"{where}: {key!r} is set by the campaign engine "
                "([campaign] seeds / duration_s), not a scenario parameter"
            )
        if key not in signature.parameters and not accepts_var_kw:
            raise SpecError(
                f"{where}: builder {builder!r} does not take a parameter "
                f"{key!r}; it accepts {accepted}"
            )


def _validate_phy_values(
    params: Mapping[str, Any],
    sweep: Mapping[str, Any],
    zip_axes: Mapping[str, Any],
    where: str,
) -> None:
    """``phy`` values must name a profile in :mod:`repro.phy.profiles`.

    Specs are plain data, so a PHY is always a profile *name*; validating it
    against the same registry :func:`repro.phy.profiles.resolve_phy` uses
    guarantees specs and experiment runners accept exactly the same names —
    and fail at load time, not simulation time.
    """
    known = profile_names()
    candidates: list[Any] = []
    if "phy" in params:
        candidates.append(params["phy"])
    for axes in (sweep, zip_axes):
        if "phy" in axes:
            candidates.extend(axes["phy"])
    for value in candidates:
        if not isinstance(value, str) or value not in known:
            raise SpecError(
                f"{where}: unknown PHY profile {value!r}; known profiles: {known}"
            )


def _validate_channel_values(
    params: Mapping[str, Any],
    sweep: Mapping[str, Any],
    zip_axes: Mapping[str, Any],
    where: str,
) -> None:
    """``channel`` values must name a model in :mod:`repro.phy.channel`.

    The same contract as :func:`_validate_phy_values`: specs carry the model
    *name* ("pairwise" / "sinr"), checked against the registry
    :func:`repro.phy.channel.resolve_channel` resolves from, so a typo fails
    at spec-load time instead of deep inside a worker process.
    """
    from repro.phy.channel import channel_names

    known = channel_names()
    candidates: list[Any] = []
    if "channel" in params:
        candidates.append(params["channel"])
    for axes in (sweep, zip_axes):
        if "channel" in axes:
            candidates.extend(axes["channel"])
    for value in candidates:
        if not isinstance(value, str) or value not in known:
            raise SpecError(
                f"{where}: unknown channel model {value!r}; known models: {known}"
            )


# ------------------------------------------------------------- expansion ----


def expand_grid(spec: CampaignSpec) -> list[dict[str, Any]]:
    """Expand a spec into its ordered list of per-point parameter dicts.

    The order is deterministic and stable: Cartesian ``sweep`` axes iterate
    in declaration order with the rightmost axis varying fastest (exactly
    ``itertools.product``), and the ``zip`` block — all zipped axes advanced
    in lockstep — acts as one extra axis appended after them (so it varies
    fastest of all).  Fixed ``params`` appear in every point.
    """
    axes: list[list[dict[str, Any]]] = [
        [{name: value} for value in values] for name, values in spec.sweep.items()
    ]
    if spec.zip_axes:
        length = len(next(iter(spec.zip_axes.values())))
        axes.append(
            [
                {name: values[i] for name, values in spec.zip_axes.items()}
                for i in range(length)
            ]
        )
    points = []
    for combo in itertools.product(*axes):
        point = dict(spec.params)
        for part in combo:
            point.update(part)
        points.append(point)
    return points


def spec_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """Document-shape dict (the TOML table layout) that round-trips a spec.

    The output is the *resolved* spec — ``[quick]`` overrides already applied
    and dropped — so ``spec_from_dict(spec_to_dict(s))`` validates to a spec
    with an identical :func:`spec_hash`.  The fleet tier uses this to ship a
    resolved spec to shard worker processes as plain JSON: workers re-derive
    the same grid, point ids and shard assignment without ever seeing the
    original TOML file.
    """
    campaign: dict[str, Any] = {
        "name": spec.name,
        "builder": spec.builder,
        "seeds": list(spec.seeds),
        "duration_s": spec.duration_s,
    }
    if spec.description:
        campaign["description"] = spec.description
    doc: dict[str, Any] = {"campaign": campaign}
    if spec.params:
        doc["params"] = dict(spec.params)
    if spec.sweep:
        doc["sweep"] = {key: list(values) for key, values in spec.sweep.items()}
    if spec.zip_axes:
        doc["zip"] = {key: list(values) for key, values in spec.zip_axes.items()}
    return doc


def point_id(params: Mapping[str, Any]) -> str:
    """Stable short id of one grid point (digest of canonical parameters)."""
    payload = json.dumps(canonical(dict(params)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def spec_hash(spec: CampaignSpec) -> str:
    """Digest of everything that determines the campaign's results.

    Covers builder, seeds, duration and the full resolved parameter space —
    but not the name/description/source, so cosmetic edits don't invalidate
    a resumable run.  Quick and full resolutions of the same file hash
    differently by construction.
    """
    payload = json.dumps(
        {
            "builder": spec.builder,
            "seeds": list(spec.seeds),
            "duration_s": spec.duration_s,
            "params": canonical(spec.params),
            "sweep": canonical(spec.sweep),
            "zip": canonical(spec.zip_axes),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
