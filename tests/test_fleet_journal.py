"""Unit tests for the fleet service's crash-safe job journal.

Everything here runs against the raw :class:`repro.fleet.JobJournal` — no
HTTP, no orchestrator — and pins the durability contract the service
relies on: fsync'd appends replay in order, a torn tail is dropped
silently, mid-file corruption keeps the valid prefix (with a warning),
compaction is equivalent to the journal it replaces, and replaying a
snapshot *plus* the lines it already covers is idempotent (the crash
window between snapshot and truncate).
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import JobJournal, JobRecord, JournalError
from repro.fleet import journal as jl

SPEC = {"campaign": {"name": "j", "builder": "nav_pairs", "seeds": [1]}}


def _submit(journal: JobJournal, job_id: str, priority: int = 0) -> None:
    journal.append(
        job_id,
        jl.SUBMITTED,
        spec=SPEC,
        spec_hash="abc123",
        code_version="v1",
        priority=priority,
        n_shards=2,
        jobs=1,
        quick=False,
    )
    journal.append(job_id, jl.QUEUED)


def test_append_replay_round_trip(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j", priority=7)
    journal.append("0001-j", jl.RUNNING)
    journal.append("0001-j", jl.MERGED, shard_attempts={"0": 1, "1": 2})
    _submit(journal, "0002-j")
    journal.append("0002-j", jl.RUNNING)
    journal.append(
        "0002-j", jl.FAILED, error="boom", shard_attempts={"0": 3}
    )
    _submit(journal, "0003-j")

    jobs = JobJournal(tmp_path).replay()
    assert set(jobs) == {"0001-j", "0002-j", "0003-j"}
    first = jobs["0001-j"]
    assert first.status == jl.MERGED and first.terminal
    assert first.priority == 7
    assert first.spec == SPEC and first.spec_hash == "abc123"
    assert first.code_version == "v1"
    assert first.shard_attempts == {"0": 1, "1": 2}
    failed = jobs["0002-j"]
    assert failed.status == jl.FAILED and failed.error == "boom"
    assert failed.shard_attempts == {"0": 3}
    queued = jobs["0003-j"]
    assert queued.status == jl.QUEUED and not queued.terminal
    # Admission order is recoverable from submitted_seq.
    seqs = [jobs[j].submitted_seq for j in ("0001-j", "0002-j", "0003-j")]
    assert seqs == sorted(seqs) and all(seqs)


def test_replay_restores_sequence_counter(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    last = journal.append("0001-j", jl.RUNNING)

    reopened = JobJournal(tmp_path)
    reopened.replay()
    assert reopened.seq == last
    assert reopened.append("0001-j", jl.MERGED) == last + 1


def test_torn_tail_is_dropped_silently(tmp_path, recwarn):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.RUNNING)
    # Simulate a crash mid-append: chop the last line in half.
    text = journal.path.read_text()
    journal.path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

    jobs = JobJournal(tmp_path).replay()
    assert jobs["0001-j"].status == jl.QUEUED  # the torn "running" is gone
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_appends_after_a_torn_tail_survive_the_next_replay(tmp_path, recwarn):
    """Kill mid-append, restart (replay + appends), kill again before any
    compaction: the second replay must see every restart append."""
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.RUNNING)
    text = journal.path.read_text()
    journal.path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

    restarted = JobJournal(tmp_path)
    assert restarted.replay()["0001-j"].seq == 2
    restarted.append("0001-j", jl.INTERRUPTED)
    restarted.append("0001-j", jl.QUEUED)

    record = JobJournal(tmp_path).replay()["0001-j"]
    assert (record.status, record.seq) == (jl.QUEUED, 4)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_midfile_corruption_keeps_prefix_and_warns(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.RUNNING)
    journal.append("0001-j", jl.MERGED)
    lines = journal.path.read_text().splitlines()
    lines[2] = lines[2][:-10] + "tampered!!"  # break the running event
    journal.path.write_text("\n".join(lines) + "\n")

    with pytest.warns(RuntimeWarning, match="dropping this line"):
        jobs = JobJournal(tmp_path).replay()
    # Integrity ends at the bad line: merged (after it) is not trusted.
    assert jobs["0001-j"].status == jl.QUEUED


def test_checksum_catches_value_tampering(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.FAILED, error="real error")
    lines = journal.path.read_text().splitlines()
    record = json.loads(lines[-1])
    record["data"]["error"] = "doctored"
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    journal.path.write_text("\n".join(lines) + "\n")

    jobs = JobJournal(tmp_path).replay()
    # The tampered terminal line fails its checksum and is dropped.
    assert jobs["0001-j"].status == jl.QUEUED


def test_compaction_is_equivalent_and_resets_lag(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.RUNNING)
    journal.append("0001-j", jl.MERGED, shard_attempts={"0": 1})
    _submit(journal, "0002-j")
    before = {jid: rec.to_dict() for jid, rec in JobJournal(tmp_path).replay().items()}

    assert journal.lag > 0
    journal.compact({jid: JobRecord.from_dict(doc) for jid, doc in before.items()})
    assert journal.lag == 0
    assert journal.path.read_text() == ""

    reopened = JobJournal(tmp_path)
    after = {jid: rec.to_dict() for jid, rec in reopened.replay().items()}
    assert after == before
    # The sequence counter survives compaction: new appends keep ascending.
    assert reopened.seq == journal.seq
    assert reopened.append("0002-j", jl.RUNNING) == journal.seq + 1


def test_replay_after_crash_between_snapshot_and_truncate(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.RUNNING)
    journal.append("0001-j", jl.MERGED)
    old_lines = journal.path.read_text()
    journal.compact(JobJournal(tmp_path).replay())
    # Crash window: snapshot written, journal not yet truncated.
    journal.path.write_text(old_lines)

    jobs = JobJournal(tmp_path).replay()
    # Re-applying already-covered lines is a no-op (seq <= last_seq skipped).
    assert jobs["0001-j"].status == jl.MERGED
    assert jobs["0001-j"].seq <= journal.seq


def test_snapshot_backup_fallback(tmp_path, recwarn):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.append("0001-j", jl.MERGED)
    journal.compact(JobJournal(tmp_path).replay())
    # A second compaction rotates the first snapshot to .bak ...
    _submit(journal, "0002-j")
    journal.compact(JobJournal(tmp_path).replay())
    assert journal.snapshot_path.with_suffix(".json.bak").exists() or (
        tmp_path / "journal" / "snapshot.json.bak"
    ).exists()
    # ... so a corrupted current snapshot falls back to it.
    journal.snapshot_path.write_text("{ not json")
    with pytest.warns(RuntimeWarning, match="unreadable"):
        jobs = JobJournal(tmp_path).replay()
    assert jobs["0001-j"].status == jl.MERGED
    # 0002-j lives only in the lost snapshot generation — the fallback is
    # lossy for the window between the two compactions, by design.


def test_maybe_compact_threshold(tmp_path):
    journal = JobJournal(tmp_path, compact_every=3)
    _submit(journal, "0001-j")  # 2 lines
    assert not journal.maybe_compact({"0001-j": JobRecord(job="0001-j", status=jl.QUEUED)})
    journal.append("0001-j", jl.RUNNING)  # 3rd line
    assert journal.maybe_compact(
        {"0001-j": JobRecord(job="0001-j", status=jl.RUNNING, seq=journal.seq)}
    )
    assert journal.lag == 0


def test_snapshot_version_mismatch_raises(tmp_path):
    journal = JobJournal(tmp_path)
    _submit(journal, "0001-j")
    journal.compact(JobJournal(tmp_path).replay())
    doc = json.loads(journal.snapshot_path.read_text())
    doc["v"] = 999
    journal.snapshot_path.write_text(json.dumps(doc))
    bak = journal.snapshot_path.parent / (journal.snapshot_path.name + ".bak")
    if bak.exists():
        bak.unlink()
    with pytest.raises(JournalError, match="version 999"):
        JobJournal(tmp_path).replay()


def test_job_record_apply_is_idempotent_and_forward_compatible(tmp_path):
    record = JobRecord(job="x")
    record.apply(jl.SUBMITTED, 1, {"priority": 3, "spec": SPEC})
    record.apply(jl.QUEUED, 2, {})
    record.apply(jl.QUEUED, 2, {})  # replayed duplicate: no-op
    record.apply("hologram", 3, {})  # unknown event: seq advances, state kept
    assert record.status == jl.QUEUED
    assert record.seq == 3
    # An older seq can never roll the record back.
    record.apply(jl.RUNNING, 1, {})
    assert record.status == jl.QUEUED

    # to_dict/from_dict round-trips everything replay needs.
    assert JobRecord.from_dict(record.to_dict()).to_dict() == record.to_dict()


def test_empty_and_missing_journal(tmp_path):
    journal = JobJournal(tmp_path)
    assert journal.replay() == {}
    assert journal.seq == 0 and journal.lag == 0
