"""Merge contract: shard outputs fold back into the canonical single-host run.

Two layers of evidence:

- *Synthetic* manifests whose done points carry results drive the pure
  merge properties (idempotent, order-independent, partial-merge leaves
  points pending, duplicate/unknown/stale shards refused) without paying
  for simulations.
- *Real* runs pin the acceptance criterion: a fleet run of a tiny spec over
  2 and 3 shards produces ``results.csv`` bytes and metrics fingerprints
  identical to ``run_campaign`` of the same spec on one host.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import metrics_fingerprint, run_campaign
from repro.campaign.manifest import DONE, Manifest, PointState, manifest_path
from repro.campaign.runner import write_reports
from repro.campaign.spec import expand_grid, point_id, spec_from_dict, spec_hash
from repro.fleet import FleetError, merge_fleet, plan_shards, run_fleet

SPEC_DOC = {
    "campaign": {
        "name": "merge-test",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.15,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
    "zip": {"nav_inflation_us": [0.0, 300.0]},
}


@pytest.fixture(scope="module")
def spec():
    return spec_from_dict(SPEC_DOC)


# ----------------------------------------------------------- synthetic -------


def _fake_shard(tmp_path, spec, name, points):
    """Write a fake completed shard dir carrying ``points`` (id->index map)."""
    shard_dir = tmp_path / name
    states = [
        PointState(
            id=pid, index=index, params=params, status=DONE,
            seeds_done=list(spec.seeds),
            result={
                "per_seed": {
                    str(s): {"goodput": float(index + s)} for s in spec.seeds
                },
                "median": {"goodput": float(index) + 1.5},
                "telemetry": None,
            },
        )
        for pid, (index, params) in points.items()
    ]
    manifest = Manifest(
        name=spec.name,
        builder=spec.builder,
        spec_hash=spec_hash(spec),
        code_version="testtoken",
        seeds=list(spec.seeds),
        duration_s=spec.duration_s,
        points=states,
    )
    manifest.save(manifest_path(shard_dir))
    return shard_dir


def _split(spec, n):
    """{id: (index, params)} maps per shard, following the real planner."""
    grid = {point_id(p): (i, p) for i, p in enumerate(expand_grid(spec))}
    plan = plan_shards(spec, n)
    return [{pid: grid[pid] for pid in shard} for shard in plan.shards]


def test_merge_reconstructs_the_single_host_artifacts(tmp_path, spec):
    """Merged manifest + reports == the same points written as one manifest."""
    parts = _split(spec, 2)
    dirs = [
        _fake_shard(tmp_path, spec, f"shard{i}", part)
        for i, part in enumerate(parts)
    ]
    out = tmp_path / "merged"
    merged = merge_fleet(spec, out, shard_dirs=dirs)
    assert merged.complete
    assert [p.index for p in merged.points] == list(range(len(merged.points)))

    # Reference: the identical points written directly as one campaign dir.
    whole = {}
    for part in parts:
        whole.update(part)
    reference_dir = _fake_shard(tmp_path, spec, "single", whole)
    reference = Manifest.load(manifest_path(reference_dir))
    reference.points.sort(key=lambda p: p.index)
    write_reports(reference_dir, reference)
    assert (out / "results.csv").read_bytes() == (
        reference_dir / "results.csv"
    ).read_bytes()
    assert metrics_fingerprint(out) == metrics_fingerprint(reference_dir)


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(list(range(3))))
def test_merge_is_order_independent(tmp_path_factory, order, spec):
    tmp_path = tmp_path_factory.mktemp("order")
    parts = _split(spec, 3)
    dirs = [
        _fake_shard(tmp_path, spec, f"shard{i}", part)
        for i, part in enumerate(parts)
    ]
    baseline = tmp_path / "baseline"
    merge_fleet(spec, baseline, shard_dirs=dirs)
    permuted = tmp_path / "permuted"
    merge_fleet(spec, permuted, shard_dirs=[dirs[i] for i in order])
    assert (permuted / "results.csv").read_bytes() == (
        baseline / "results.csv"
    ).read_bytes()
    assert manifest_path(permuted).read_bytes() == manifest_path(baseline).read_bytes()


def test_merge_is_idempotent(tmp_path, spec):
    dirs = [
        _fake_shard(tmp_path, spec, f"shard{i}", part)
        for i, part in enumerate(_split(spec, 2))
    ]
    out = tmp_path / "merged"
    merge_fleet(spec, out, shard_dirs=dirs)
    first_csv = (out / "results.csv").read_bytes()
    first_manifest = manifest_path(out).read_bytes()
    merge_fleet(spec, out, shard_dirs=dirs)  # merge again, same inputs
    assert (out / "results.csv").read_bytes() == first_csv
    assert manifest_path(out).read_bytes() == first_manifest


def test_partial_merge_leaves_missing_points_pending(tmp_path, spec):
    parts = _split(spec, 2)
    survivor = _fake_shard(tmp_path, spec, "survivor", parts[0])
    out = tmp_path / "merged"
    merged = merge_fleet(spec, out, shard_dirs=[survivor])
    assert not merged.complete
    assert merged.count(DONE) == len(parts[0])
    assert merged.total == spec.n_points
    assert (out / "results.csv").exists()  # survivors still reported


def test_duplicate_point_across_shards_is_refused(tmp_path, spec):
    parts = _split(spec, 2)
    overlap = dict(parts[1])
    overlap.update(dict(itertools.islice(parts[0].items(), 1)))
    dirs = [
        _fake_shard(tmp_path, spec, "a", parts[0]),
        _fake_shard(tmp_path, spec, "b", overlap),
    ]
    with pytest.raises(FleetError, match="more than one shard"):
        merge_fleet(spec, tmp_path / "merged", shard_dirs=dirs)


def test_stale_shard_spec_hash_is_refused(tmp_path, spec):
    other = spec_from_dict(
        {**SPEC_DOC, "campaign": {**SPEC_DOC["campaign"], "seeds": [1, 2, 3]}}
    )
    stale = _fake_shard(tmp_path, other, "stale", _split(other, 1)[0])
    with pytest.raises(FleetError, match="spec hash"):
        merge_fleet(spec, tmp_path / "merged", shard_dirs=[stale])


def test_mixed_code_versions_are_refused(tmp_path, spec):
    parts = _split(spec, 2)
    dirs = [
        _fake_shard(tmp_path, spec, f"shard{i}", part)
        for i, part in enumerate(parts)
    ]
    drifted = Manifest.load(manifest_path(dirs[1]))
    drifted.code_version = "othertoken"
    drifted.save(manifest_path(dirs[1]))
    with pytest.raises(FleetError, match="code"):
        merge_fleet(spec, tmp_path / "merged", shard_dirs=dirs)


# ----------------------------------------------------- real-run equivalence --


@pytest.mark.parametrize("n_shards", [2, 3])
def test_fleet_run_matches_single_host_bytes(tmp_path, spec, n_shards):
    """The acceptance criterion, on a tiny grid: byte-identical outputs."""
    single = tmp_path / "single"
    run_campaign(spec, out_dir=single)

    fleet_out = tmp_path / f"fleet{n_shards}"
    result = run_fleet(spec, fleet_out, n_shards=n_shards, executor="local")
    assert result.ok and result.merged

    assert metrics_fingerprint(fleet_out) == metrics_fingerprint(single)
    assert (fleet_out / "results.csv").read_bytes() == (
        single / "results.csv"
    ).read_bytes()


def test_fleet_run_matches_single_host_second_spec(tmp_path):
    """Same equivalence on a structurally different spec (no zip, tcp)."""
    doc = {
        "campaign": {
            "name": "merge-test-2",
            "builder": "nav_pairs_sorted",
            "seeds": [3],
            "duration_s": 0.15,
        },
        "sweep": {"nav_ms": [0.0, 2.0], "n_greedy": [1]},
    }
    spec = spec_from_dict(doc)
    single = tmp_path / "single"
    run_campaign(spec, out_dir=single)
    fleet_out = tmp_path / "fleet"
    result = run_fleet(spec, fleet_out, n_shards=2, executor="local")
    assert result.ok
    assert metrics_fingerprint(fleet_out) == metrics_fingerprint(single)
    assert (fleet_out / "results.csv").read_bytes() == (
        single / "results.csv"
    ).read_bytes()
