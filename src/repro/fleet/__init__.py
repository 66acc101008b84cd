"""repro.fleet: sharded campaign execution with an orchestrator + HTTP API.

The fleet tier turns one campaign into N independently-runnable *shards*:

- :mod:`repro.fleet.plan` deterministically partitions the expanded grid
  (stable point -> shard assignment keyed by the spec hash);
- :mod:`repro.fleet.executor` is the seam that actually runs a shard —
  in-process, as an independent OS subprocess, or (by registering a new
  executor) on a remote host;
- :mod:`repro.fleet.run` is the asyncio orchestrator: dispatch every shard,
  re-dispatch dead ones (the per-shard manifest resume makes that cheap),
  then merge;
- :mod:`repro.fleet.merge` folds shard outputs back into the canonical
  single-host artifacts, byte-identical in metrics fingerprints;
- :mod:`repro.fleet.service` / :mod:`repro.fleet.client` expose the whole
  thing over stdlib HTTP (``repro fleet serve`` / ``repro fleet submit``);
- :mod:`repro.fleet.journal` is the service's crash-safe job journal:
  every job state transition is fsync'd to an append-only checksummed
  JSONL log (with atomic snapshot compaction), so a killed-and-restarted
  service replays its queue and converges byte-identically.

See DESIGN.md §13 for the contracts and shard resume semantics.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".client": (
        "FleetClientError", "cancel_job", "fetch_results", "get_json", "submit_job",
        "wait_for_job",
    ),
    ".executor": (
        "CHAOS_KILL_ENV", "FleetExecutor", "LocalExecutor", "ShardOutcome", "ShardTask",
        "SubprocessExecutor", "executor_names", "get_executor", "register_executor",
    ),
    ".journal": ("JobJournal", "JobRecord", "JournalError"),
    ".merge": ("collect_fleet_telemetry", "default_shard_dirs", "merge_fleet"),
    ".plan": ("FleetError", "ShardPlan", "plan_shards"),
    ".run": (
        "FleetRun", "FleetState", "ShardState", "fleet_state_path",
        "fleet_status_document", "load_spec_document", "run_fleet", "run_fleet_async",
        "run_shard_inprocess", "shard_dir", "spec_path",
    ),
    ".service": ("FleetService", "ServiceThread"),
})
