"""Cache correctness: hits, misses, invalidation, corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import run_nav_pairs
from repro.mac.frames import FrameKind
from repro.phy.params import dot11a
from repro.runtime import (
    QUARANTINE_DIRNAME,
    ResultCache,
    canonical,
    code_version_token,
    map_over_seeds,
    result_checksum,
    seed_job,
)

RESULT = {"goodput_R0": 1.25, "goodput_R1": 0.5}


def make_spec(**overrides):
    kwargs = {"duration_s": 0.3, "transport": "udp", "nav_inflation_us": 600.0}
    kwargs.update(overrides)
    return seed_job(run_nav_pairs, **kwargs).with_seed(1)


def test_hit_on_identical_spec(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    assert cache.get(spec) is None
    cache.put(spec, RESULT)
    # A freshly constructed but identical spec must hit.
    assert cache.get(make_spec()) == RESULT
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "errors": 0,
        "quarantined": 0,
        "claims": 0,
        "claim_conflicts": 0,
        "lock_breaks": 0,
        "waits": 0,
    }


def test_miss_on_changed_kwarg_seed_or_duration(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    cache.put(make_spec(), RESULT)
    assert cache.get(make_spec(nav_inflation_us=700.0)) is None  # kwarg
    assert cache.get(make_spec().with_seed(2)) is None  # seed
    assert cache.get(make_spec(duration_s=2.0)) is None  # duration
    assert cache.get(make_spec()) == RESULT  # sanity: original still hits


def test_invalidation_when_code_version_changes(tmp_path):
    spec = make_spec()
    ResultCache(tmp_path, version="v1").put(spec, RESULT)
    assert ResultCache(tmp_path, version="v2").get(spec) is None
    assert ResultCache(tmp_path, version="v1").get(spec) == RESULT


def test_corrupted_entry_warns_and_recomputes(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.put(spec, RESULT)
    cache.path_for(spec).write_text("{ not json !!")
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        assert cache.get(spec) is None
    assert cache.errors == 1
    # The engine falls back to recomputation and repairs the entry.
    cache.path_for(spec).write_text("{ not json !!")
    job = seed_job(run_nav_pairs, **dict(spec.kwargs))
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        results = map_over_seeds(job, [1], cache=cache)
    assert results[1] == cache.get(spec)  # repaired: clean hit, real result


def test_entry_with_wrong_shape_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(spec).write_text(json.dumps({"result": [1, 2, 3]}))
    with pytest.warns(RuntimeWarning, match="corrupted"):
        assert cache.get(spec) is None


def test_truncated_entry_is_quarantined_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.put(spec, RESULT)
    path = cache.path_for(spec)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])  # torn write
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        assert cache.get(spec) is None
    # The corrupt file was moved aside, not left in place to recur.
    assert not path.exists()
    assert (tmp_path / QUARANTINE_DIRNAME / path.name).exists()
    assert cache.stats()["quarantined"] == 1
    cache.put(spec, RESULT)
    assert cache.get(spec) == RESULT  # repaired entry is clean


def test_wrong_checksum_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.put(spec, RESULT)
    path = cache.path_for(spec)
    payload = json.loads(path.read_text())
    payload["result"]["goodput_R0"] = 999.0  # bit-flip without checksum update
    path.write_text(json.dumps(payload))
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert cache.get(spec) is None
    assert cache.stats()["quarantined"] == 1


def test_entry_missing_checksum_field_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.put(spec, RESULT)
    path = cache.path_for(spec)
    payload = json.loads(path.read_text())
    del payload["checksum"]  # entry written by a pre-checksum cache
    path.write_text(json.dumps(payload))
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        assert cache.get(spec) is None


def test_cache_dir_deleted_mid_run_recomputes(tmp_path):
    import shutil

    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    job = seed_job(run_nav_pairs, duration_s=0.2, transport="udp")
    first = map_over_seeds(job, (1,), cache=cache)
    shutil.rmtree(cache_dir)  # the rug-pull: someone rm -rf'd the cache
    second = map_over_seeds(job, (1,), cache=cache)  # recomputes, re-stores
    assert second == first
    assert cache.stats()["stores"] == 2
    assert cache.get(job.with_seed(1)) == first[1]  # directory was recreated


def test_checksums_roundtrip_via_result_checksum(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    cache.put(spec, RESULT)
    payload = json.loads(cache.path_for(spec).read_text())
    assert payload["checksum"] == result_checksum(RESULT)
    assert payload["checksum"] == result_checksum(dict(reversed(RESULT.items())))


def test_map_over_seeds_uses_cache(tmp_path):
    cache = ResultCache(tmp_path)
    job = seed_job(run_nav_pairs, duration_s=0.2, transport="udp")
    first = map_over_seeds(job, (1, 2), cache=cache)
    assert cache.stats()["stores"] == 2
    second = map_over_seeds(job, (1, 2), cache=cache)
    assert second == first
    assert cache.stats()["hits"] == 2
    assert cache.stats()["stores"] == 2  # nothing recomputed


def test_code_version_token_is_stable_and_hexish():
    token = code_version_token()
    assert token == code_version_token()
    assert len(token) == 16
    int(token, 16)  # raises if not hex


def test_canonical_handles_runner_argument_types():
    encoded = canonical(
        {
            "frames": frozenset({FrameKind.CTS, FrameKind.ACK}),
            "phy": dot11a(6.0),
            "flags": (False, True),
            "nested": {"b": 2, "a": 1},
        }
    )
    # Must be JSON-serialisable and order-independent.
    assert json.dumps(encoded, sort_keys=True) == json.dumps(
        canonical(
            {
                "nested": {"a": 1, "b": 2},
                "flags": [False, True],
                "phy": dot11a(6.0),
                "frames": frozenset({FrameKind.ACK, FrameKind.CTS}),
            }
        ),
        sort_keys=True,
    )


def test_canonical_rejects_unstable_types():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="canonicalise"):
        canonical({"bad": Opaque()})


# ------------------------------------------------- advisory entry locking ---


def test_claim_excludes_second_claim_until_released(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    claim = cache.try_claim(spec)
    assert claim is not None
    # Same process, lock already held: the second claim is refused (the lock
    # carries our live pid, so it is not stale either).
    assert cache.try_claim(spec) is None
    assert cache.stats()["claim_conflicts"] == 1
    claim.release()
    claim.release()  # idempotent
    again = cache.try_claim(spec)
    assert again is not None
    again.release()
    assert cache.stats()["claims"] == 2


def test_claims_for_different_specs_are_independent(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    with cache.try_claim(make_spec()) as first:
        second = cache.try_claim(make_spec(nav_inflation_us=700.0))
        assert first is not None and second is not None
        second.release()


def test_stale_lock_of_dead_process_is_broken(tmp_path):
    import os
    import subprocess
    import sys

    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    # A pid that provably belonged to a process that has exited.
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    lock = cache.lock_path_for(spec)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text(str(proc.pid))
    claim = cache.try_claim(spec)
    assert claim is not None  # stolen from the dead holder
    assert cache.stats()["lock_breaks"] == 1
    assert lock.read_text().strip() == str(os.getpid())
    claim.release()


def test_old_unreadable_lock_is_broken_by_age(tmp_path):
    import os
    import time

    cache = ResultCache(tmp_path, version="v1", lock_stale_s=10.0)
    spec = make_spec()
    lock = cache.lock_path_for(spec)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("not-a-pid")  # torn write: pid unreadable, age decides
    old = time.time() - 60.0
    os.utime(lock, (old, old))
    claim = cache.try_claim(spec)
    assert claim is not None
    assert cache.stats()["lock_breaks"] == 1
    claim.release()


def test_wait_for_returns_entry_published_by_holder(tmp_path):
    import threading
    import time

    holder = ResultCache(tmp_path, version="v1")
    waiter = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    claim = holder.try_claim(spec)
    assert claim is not None

    def publish():
        time.sleep(0.15)
        holder.put(spec, RESULT)
        claim.release()

    thread = threading.Thread(target=publish)
    thread.start()
    try:
        assert waiter.wait_for(spec, timeout_s=10.0, poll_s=0.01) == RESULT
    finally:
        thread.join()
    assert waiter.stats()["waits"] == 1
    assert waiter.stats()["hits"] == 1


def test_wait_for_gives_up_fast_when_holder_died(tmp_path):
    import subprocess
    import sys
    import time

    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    lock = cache.lock_path_for(spec)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text(str(proc.pid))
    start = time.monotonic()
    assert cache.wait_for(spec, timeout_s=30.0, poll_s=0.01) is None
    assert time.monotonic() - start < 5.0  # dead holder detected, no timeout


def test_wait_for_times_out_on_live_holder_without_entry(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    spec = make_spec()
    claim = cache.try_claim(spec)
    try:
        assert cache.wait_for(spec, timeout_s=0.1, poll_s=0.01) is None
        assert cache.stats()["misses"] == 1
    finally:
        claim.release()


def test_map_over_seeds_waits_for_a_concurrent_claimant(tmp_path):
    """Two 'processes' sharing a cache dir: the loser of the claim race waits
    for the winner's store instead of recomputing the entry."""
    import threading
    import time

    winner = ResultCache(tmp_path)
    loser = ResultCache(tmp_path)
    job = seed_job(run_nav_pairs, duration_s=0.2, transport="udp")
    spec = job.with_seed(1)
    claim = winner.try_claim(spec)
    assert claim is not None

    def compute_and_publish():
        time.sleep(0.2)
        winner.put(spec, RESULT)
        claim.release()

    thread = threading.Thread(target=compute_and_publish)
    thread.start()
    try:
        results = map_over_seeds(job, [1], cache=loser)
    finally:
        thread.join()
    # The loser never computed: RESULT is the winner's (fake) payload, which
    # a real simulation of this job would not produce.
    assert results[1] == RESULT
    assert loser.stats()["stores"] == 0
    assert loser.stats()["waits"] == 1


def test_map_over_seeds_recomputes_after_claimant_crash(tmp_path):
    import subprocess
    import sys

    cache = ResultCache(tmp_path)
    job = seed_job(run_nav_pairs, duration_s=0.2, transport="udp")
    spec = job.with_seed(1)
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    lock = cache.lock_path_for(spec)
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text(str(proc.pid))  # a claim whose holder is dead
    results = map_over_seeds(job, [1], cache=cache)
    assert results[1] == cache.get(spec)  # computed + stored despite the lock
    assert cache.stats()["stores"] == 1


def test_code_version_salt_is_folded_into_the_token():
    """Bumping CODE_VERSION_SALT must invalidate every cache entry even when
    no source file changed (the fast-path epoch fence)."""
    from unittest import mock

    from repro.runtime import cache as cache_mod

    baseline = cache_mod.code_version_token()
    # The memoized part is the source digest; the channel key is live.
    cache_mod._source_token.cache_clear()
    try:
        with mock.patch.object(cache_mod, "CODE_VERSION_SALT", "different-epoch"):
            bumped = cache_mod.code_version_token()
    finally:
        cache_mod._source_token.cache_clear()
    assert bumped != baseline
    assert cache_mod.code_version_token() == baseline  # restored


def test_salt_bump_invalidates_stored_entries(tmp_path):
    spec = make_spec()
    ResultCache(tmp_path, version="token-epoch-1").put(spec, RESULT)
    # A different token (as a salt bump produces) misses; the old one hits.
    assert ResultCache(tmp_path, version="token-epoch-2").get(spec) is None
    assert ResultCache(tmp_path, version="token-epoch-1").get(spec) == RESULT
