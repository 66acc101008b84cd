"""Executor seam: how a planned shard actually gets run.

A :class:`FleetExecutor` turns one :class:`ShardTask` (spec file + out dir +
shard index) into a finished shard campaign directory and reports a
:class:`ShardOutcome`.  The orchestrator never cares *where* the shard ran —
it re-checks the shard's own manifest log afterwards, so an executor
that lies about success is caught, and one that dies mid-run is healed by a
re-dispatch (the shard worker always resumes).

Two executors ship in-tree:

- ``local``  — runs the shard in-process (same interpreter, no isolation);
  the reference implementation and the fast path for tests.
- ``subprocess`` — launches ``python -m repro fleet worker ...`` as an
  independent OS process per shard, logging to ``<shard>/worker.log``.

The registry (:func:`register_executor` / :func:`get_executor`) is the
contract a future SSH/remote executor plugs into: implement ``run_shard``,
ship the spec file and collect the shard directory however you like, and
register under a new name.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.fleet.plan import FleetError


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run one shard of a fleet campaign."""

    spec_path: Path
    out_dir: Path
    shard: int
    n_shards: int
    jobs: int = 1
    cache_dir: Path | None = None


@dataclass(frozen=True)
class ShardOutcome:
    """What an executor observed; ground truth stays the shard manifest."""

    shard: int
    returncode: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class FleetExecutor:
    """Base class: run one shard to completion (or failure) and report."""

    name = "abstract"

    def run_shard(self, task: ShardTask) -> ShardOutcome:  # pragma: no cover
        raise NotImplementedError

    def cancel(self) -> None:
        """Stop every shard this executor currently has in flight.

        Called by the orchestrator when its task is cancelled (job cancel,
        service shutdown).  Best-effort: the base class cannot interrupt
        anything and does nothing; the subprocess executor kills its worker
        processes, whose atomic manifests make the interruption resumable.
        """


_EXECUTORS: dict[str, type[FleetExecutor]] = {}


def register_executor(name: str) -> Callable[[type[FleetExecutor]], type[FleetExecutor]]:
    """Class decorator adding an executor to the registry under ``name``."""

    def wrap(cls: type[FleetExecutor]) -> type[FleetExecutor]:
        cls.name = name
        _EXECUTORS[name] = cls
        return cls

    return wrap


def executor_names() -> list[str]:
    return sorted(_EXECUTORS)


def get_executor(name: str, **options: object) -> FleetExecutor:
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        known = ", ".join(executor_names())
        raise FleetError(f"unknown executor {name!r} (known: {known})") from None
    return cls(**options)  # type: ignore[call-arg]


@register_executor("local")
class LocalExecutor(FleetExecutor):
    """Run the shard in this process — no isolation, no spawn cost."""

    def run_shard(self, task: ShardTask) -> ShardOutcome:
        from repro.fleet.run import run_shard_inprocess

        try:
            code = run_shard_inprocess(task)
        except Exception as exc:  # noqa: BLE001 - executor boundary
            return ShardOutcome(task.shard, returncode=1, error=f"{type(exc).__name__}: {exc}")
        return ShardOutcome(task.shard, returncode=code)


#: Environment variable naming one shard index; that shard's subprocess
#: worker kills itself after its first point completes (exactly once per out
#: dir).  CI's fleet-smoke job uses it to prove campaign-level healing.
CHAOS_KILL_ENV = "REPRO_FLEET_CHAOS_KILL"


def chaos_kill_hook(task: ShardTask) -> Callable[[str], None] | None:
    """A ``progress`` callback that SIGKILLs this worker, or None.

    Only when :data:`CHAOS_KILL_ENV` names ``task.shard`` and the shard has
    no ``.chaos-killed`` marker yet.  The campaign calls ``progress`` right
    after the manifest line that settles a point, so the worker writes the
    marker and kills itself as soon as its manifest log shows a DONE point,
    before it can finish and exit.  ``repro fleet worker`` installs it; the
    local executor runs shards in the service's own process and never does.
    """
    marker = task.out_dir / ".chaos-killed"
    if os.environ.get(CHAOS_KILL_ENV) != str(task.shard) or marker.exists():
        return None

    def kill_after_first_done(_message: str) -> None:
        from repro.campaign.manifest import DONE, Manifest, manifest_path

        manifest = Manifest.load(manifest_path(task.out_dir))
        if any(point.status == DONE for point in manifest.points):
            marker.write_text("killed after first DONE point\n")
            os.kill(os.getpid(), signal.SIGKILL)

    return kill_after_first_done


@register_executor("subprocess")
class SubprocessExecutor(FleetExecutor):
    """One independent OS process per shard: ``python -m repro fleet worker``.

    ``on_spawn(task, proc)`` (if given) is called right after the process
    starts — the hook tests use to kill a worker mid-run.
    """

    def __init__(self, on_spawn: Callable[[ShardTask, subprocess.Popen], None] | None = None) -> None:
        self.on_spawn = on_spawn
        self._procs: set[subprocess.Popen] = set()
        self._procs_lock = threading.Lock()

    def cancel(self) -> None:
        with self._procs_lock:
            live = list(self._procs)
        for proc in live:
            if proc.poll() is None:
                proc.kill()

    def run_shard(self, task: ShardTask) -> ShardOutcome:
        import repro

        cmd = [
            sys.executable,
            "-m",
            "repro",
            "fleet",
            "worker",
            "--spec",
            str(task.spec_path),
            "--out",
            str(task.out_dir),
            "--shard",
            str(task.shard),
            "--n-shards",
            str(task.n_shards),
            "--jobs",
            str(task.jobs),
        ]
        if task.cache_dir is not None:
            cmd += ["--cache-dir", str(task.cache_dir)]
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        task.out_dir.mkdir(parents=True, exist_ok=True)
        log_path = task.out_dir / "worker.log"
        with log_path.open("a") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
            with self._procs_lock:
                self._procs.add(proc)
            if self.on_spawn is not None:
                self.on_spawn(task, proc)
            try:
                code = proc.wait()
            finally:
                with self._procs_lock:
                    self._procs.discard(proc)
        if code != 0:
            tail = "".join(log_path.read_text().splitlines(keepends=True)[-8:]).strip()
            return ShardOutcome(task.shard, returncode=code, error=tail or f"exit {code}")
        return ShardOutcome(task.shard, returncode=0)
