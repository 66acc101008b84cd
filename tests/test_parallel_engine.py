"""Determinism-equivalence and property tests for the parallel engine.

The contract the engine must uphold: fanning seeded runs out over worker
processes changes only the wall clock, never a single bit of the results.
One representative runner per misbehavior family is executed serially and
with ``jobs=4`` on the same seeds, and the metric dicts must compare equal
(floats exact, no tolerance).
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.builders import (
    fake_inherent_loss,
    grc_nav_distance,
    nav_pairs,
    spoof_tcp_pairs,
)
from repro.experiments.common import seed_job
from repro.runtime import JobSpec, execution, map_over_seeds, runner_path
from repro.stats import median_over_seeds

SEEDS = (1, 2, 3, 4)


def constant_runner(seed: int, value: float = 1.0) -> dict[str, float]:
    return {"x": value}


def per_seed_runner(seed: int) -> dict[str, float]:
    return {"x": 1.0} if seed == 1 else {"y": 2.0}


def reverse_finishing_runner(seed: int) -> dict[str, float]:
    """Higher seeds finish first, so completion order reverses submission."""
    time.sleep((5 - seed) * 0.05)
    return {"x": float(seed)}


DURATION_S = 0.4  # short: 4 runners x 2 modes x 4 seeds must stay CI-friendly

#: One representative runner per misbehavior family (ISSUE satellite 1):
#: NAV inflation on pairs, TCP ACK spoofing, fake ACKs, and GRC NAV defense.
FAMILY_JOBS = {
    "nav-pairs": seed_job(
        nav_pairs,
        duration_s=DURATION_S,
        transport="udp",
        nav_inflation_us=10_000.0,
    ),
    "spoof-tcp": seed_job(
        spoof_tcp_pairs, duration_s=DURATION_S, ber=2e-4
    ),
    "fake-ack": seed_job(
        fake_inherent_loss,
        duration_s=DURATION_S,
        data_fer=0.5,
        greedy_flags=(False, True),
    ),
    "grc-nav": seed_job(
        grc_nav_distance, duration_s=DURATION_S, pair_distance_m=20.0
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_JOBS))
def test_parallel_results_bit_identical_to_serial(family):
    job = FAMILY_JOBS[family]
    serial = map_over_seeds(job, SEEDS, jobs=1)
    parallel = map_over_seeds(job, SEEDS, jobs=4)
    assert serial == parallel  # exact float equality, per seed and per key


def test_median_over_seeds_identical_serial_vs_parallel():
    job = FAMILY_JOBS["nav-pairs"]
    serial = median_over_seeds(job, SEEDS)
    with execution(jobs=4):
        assert median_over_seeds(job, SEEDS) == serial


def test_execution_context_drives_fanout_transparently():
    job = FAMILY_JOBS["fake-ack"]
    serial = median_over_seeds(job, SEEDS[:2])
    with execution(jobs=2):
        ambient = median_over_seeds(job, SEEDS[:2])
    assert serial == ambient


# ------------------------------------------------------- property tests --


def test_map_over_seeds_empty_seed_error():
    with pytest.raises(ValueError, match="at least one seed"):
        map_over_seeds(seed_job(constant_runner), [])


def test_map_over_seeds_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="duplicate"):
        map_over_seeds(seed_job(constant_runner), [1, 2, 1])


def test_median_over_seeds_inconsistent_keys():
    with pytest.raises(ValueError, match="inconsistent keys"):
        median_over_seeds(seed_job(per_seed_runner), [1, 2])


def test_results_keyed_by_seed_not_completion_order():
    # Completion order is the reverse of submission order, yet every result
    # must land under its own seed.
    results = map_over_seeds(seed_job(reverse_finishing_runner), [1, 2, 3, 4], jobs=4)
    assert results == {1: {"x": 1.0}, 2: {"x": 2.0}, 3: {"x": 3.0}, 4: {"x": 4.0}}
    assert list(results) == [1, 2, 3, 4]  # seed order, not completion order


def test_map_over_seeds_rejects_plain_callables():
    with pytest.raises(TypeError, match="JobSpec"):
        map_over_seeds(constant_runner, [1])


# ------------------------------------------------------- JobSpec hygiene --


def test_seed_job_rejects_lambdas_and_locals():
    with pytest.raises(ValueError, match="module level"):
        seed_job(lambda seed: {"x": 1.0})

    def local_runner(seed):
        return {"x": 1.0}

    with pytest.raises(ValueError, match="module level"):
        seed_job(local_runner)


def test_seed_job_rejects_seed_kwarg():
    with pytest.raises(ValueError, match="seed"):
        seed_job(nav_pairs, seed=1, duration_s=0.1)


def test_jobspec_roundtrips_through_its_path():
    job = seed_job(nav_pairs, duration_s=0.1)
    assert job.runner == runner_path(nav_pairs)
    assert job.resolve() is nav_pairs
    assert JobSpec.of(job.runner, duration_s=0.1) == job


def test_jobspec_requires_seed_to_run():
    with pytest.raises(ValueError, match="no seed"):
        seed_job(nav_pairs, duration_s=0.1).run()


def test_jobspec_rejects_opaque_kwargs_at_construction():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="'phy'.*not cache-key stable"):
        JobSpec.of(runner_path(nav_pairs), duration_s=0.1, phy=Opaque())
    with pytest.raises(TypeError, match="'phy'"):
        seed_job(nav_pairs, duration_s=0.1, phy=Opaque())
    # plain data (including nested containers) is still fine
    seed_job(nav_pairs, duration_s=0.1, inflate_frames=("CTS", "ACK"))
