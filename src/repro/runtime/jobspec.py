"""Pickle-safe job specifications for the parallel execution layer.

A :class:`JobSpec` names a seed-parameterised runner by *module path* plus
keyword arguments instead of capturing a closure, so it can cross a process
boundary and serve as a stable on-disk cache key.  Runners must be
module-level callables taking ``seed`` as a keyword argument — exactly the
shape of the scenario builders in :mod:`repro.campaign.builders` and the
runners in :mod:`repro.testbed.emulation`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping


def runner_path(runner: Callable[..., Any]) -> str:
    """``module:qualname`` address of a module-level callable.

    Rejects lambdas, locals and bound methods: those cannot be re-imported
    by a worker process (and would silently fall back to pickling closures).
    """
    module = getattr(runner, "__module__", None)
    qualname = getattr(runner, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(f"runner {runner!r} has no module/qualname")
    if "<lambda>" in qualname or "<locals>" in qualname or "." in qualname:
        raise ValueError(
            f"runner {module}:{qualname} is not addressable at module level; "
            "move it to the top of its module so worker processes can import it"
        )
    return f"{module}:{qualname}"


def resolve_runner(path: str) -> Callable[..., Any]:
    """Import the callable a ``module:qualname`` path points at."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"malformed runner path {path!r}; expected 'module:callable'")
    runner = getattr(importlib.import_module(module_name), attr, None)
    if not callable(runner):
        raise ValueError(f"runner path {path!r} does not resolve to a callable")
    return runner


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serialisable canonical form for cache keys.

    Handles the argument types the experiment runners actually take: scalars,
    sequences, mappings, (frozen)sets, enums (e.g. ``FrameKind``) and frozen
    dataclasses (e.g. ``PhyParams``).  Anything else raises so that cache
    keys never silently depend on an unstable ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__module__}:{type(value).__qualname__}.{value.name}"}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": f"{type(value).__module__}:{type(value).__qualname__}",
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        encoded = [canonical(v) for v in value]
        return {"__set__": sorted(encoded, key=lambda v: json.dumps(v, sort_keys=True))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for a cache key; "
        "pass plain data, enums or dataclasses"
    )


@dataclass(frozen=True)
class JobSpec:
    """One seeded simulation point: runner address + kwargs + seed."""

    runner: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def of(cls, runner: Callable[..., Any] | str, /, **kwargs: Any) -> "JobSpec":
        """Build a spec from a module-level callable (or its path).

        Every kwarg must canonicalise (see :func:`canonical`); opaque values
        are rejected here, at construction time, so a cache key can never
        silently collide with another job's or churn between runs because an
        argument hashed through an unstable ``repr``/pickle round-trip.
        """
        path = runner if isinstance(runner, str) else runner_path(runner)
        if "seed" in kwargs:
            raise ValueError("pass the seed via with_seed()/map_over_seeds, not kwargs")
        for key, value in kwargs.items():
            try:
                canonical(value)
            except TypeError as exc:
                raise TypeError(
                    f"kwarg {key!r} for runner {path} is not cache-key stable: {exc}"
                ) from None
        return cls(runner=path, kwargs=dict(kwargs))

    def with_seed(self, seed: int) -> "JobSpec":
        return dataclasses.replace(self, seed=int(seed))

    def resolve(self) -> Callable[..., Any]:
        return resolve_runner(self.runner)

    def run(self) -> dict[str, float]:
        """Execute the runner in-process and return its metric dict."""
        if self.seed is None:
            raise ValueError("JobSpec has no seed; call with_seed() first")
        return dict(self.resolve()(seed=self.seed, **self.kwargs))

    def cache_key(self, version: str) -> str:
        """Stable digest over (runner, kwargs, seed, code version)."""
        payload = json.dumps(
            {
                "runner": self.runner,
                "kwargs": canonical(self.kwargs),
                "seed": self.seed,
                "version": version,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def seed_job(runner: Callable[..., Any] | str, /, **kwargs: Any) -> JobSpec:
    """Shorthand for :meth:`JobSpec.of`; reads naturally at call sites."""
    return JobSpec.of(runner, **kwargs)
