"""Deterministic shard planning: split a campaign grid into N shard manifests.

A :class:`ShardPlan` assigns every expanded grid point to exactly one shard.
The assignment is a pure function of ``(spec_hash, n_shards)``:

1. rank the point ids by ``sha256(spec_hash + ":" + point_id)`` — a stable
   keyed shuffle, so pathological specs (e.g. sorted sweeps whose expensive
   points cluster) still spread evenly;
2. deal the ranked points round-robin over the shards.

Round-robin over the keyed ranking makes the partition *balanced* (shard
sizes differ by at most one) as well as deterministic: every worker — and
every re-dispatch of a dead shard — re-derives the identical assignment from
the spec alone, so the per-shard manifest resume fences of
:func:`repro.campaign.runner.run_campaign` keep working unchanged.  Within a
shard, points stay in global grid order, so a shard manifest is literally a
row-filtered view of the single-host manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.campaign.spec import CampaignSpec, expand_grid, point_id, spec_hash


class FleetError(RuntimeError):
    """A fleet run cannot proceed; the message says why."""


def _rank_key(spec_digest: str, pid: str) -> str:
    return hashlib.sha256(f"{spec_digest}:{pid}".encode()).hexdigest()


@dataclass(frozen=True)
class ShardPlan:
    """One deterministic partition of a campaign grid over ``n_shards``."""

    spec_hash: str
    n_shards: int
    #: shard index -> point ids assigned to it, each in global grid order.
    shards: tuple[tuple[str, ...], ...]

    @property
    def n_points(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_of(self, pid: str) -> int:
        """Which shard owns ``pid``; raises KeyError for unknown points."""
        for index, shard in enumerate(self.shards):
            if pid in shard:
                return index
        raise KeyError(f"point {pid!r} is not in this plan")

    def nonempty(self) -> list[int]:
        """Indices of shards that actually own points (N may exceed the grid)."""
        return [index for index, shard in enumerate(self.shards) if shard]


def plan_shards(spec: CampaignSpec, n_shards: int) -> ShardPlan:
    """Partition ``spec``'s expanded grid into ``n_shards`` stable shards."""
    if n_shards < 1:
        raise FleetError(f"n_shards must be >= 1, got {n_shards}")
    ids = [point_id(params) for params in expand_grid(spec)]
    if len(set(ids)) != len(ids):
        raise FleetError(
            f"campaign {spec.name!r} expands to duplicate points; "
            "check the sweep/zip axes for repeated values"
        )
    digest = spec_hash(spec)
    ranked = sorted(ids, key=lambda pid: _rank_key(digest, pid))
    assignment = {pid: rank % n_shards for rank, pid in enumerate(ranked)}
    shards = tuple(
        tuple(pid for pid in ids if assignment[pid] == shard)
        for shard in range(n_shards)
    )
    return ShardPlan(spec_hash=digest, n_shards=n_shards, shards=shards)
