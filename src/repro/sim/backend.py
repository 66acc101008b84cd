"""Simulation backend registry and ambient selection.

A *backend* is a named bundle of implementation strategies for the hot
simulation paths — which medium class a :class:`repro.net.scenario.Scenario`
builds, whether the MAC uses precomputed slot/CW transition tables, and how
the corruption-roll uniforms are drawn.  Two backends ship today:

* ``scalar`` — the reference implementation: pure-python per-frame PHY math,
  draw-on-demand/256-batched RNG, arithmetic CW doubling.  This is the code
  path every golden trace was captured on.
* ``vectorized`` — numpy-accelerated: per-sender reach and FER tables are
  batched as arrays (:mod:`repro.phy.vectorized`), corruption uniforms come
  from :class:`repro.sim.rng.NumpyBlockUniform` (Mersenne-Twister state
  transplanted into numpy so block draws replay the scalar stream exactly),
  and the DCF uses precomputed slot-delay / CW-doubling tables.

**The equivalence contract.**  Every backend must either (a) replay the
committed golden traces and campaign metrics *byte for byte* — the
``vectorized`` backend does, which is what the cross-backend differential
harness (:mod:`repro.perf.diff`, ``tests/test_backend_diff.py``) enforces —
or (b) register ``trace_suffix`` so it gets its own ``backend=``-keyed
golden set under ``tests/golden/`` and a distinct result-cache version
(:func:`repro.runtime.cache.code_version_token` folds the active backend's
``cache_key`` in).  A backend may never silently serve results captured
under different semantics.

Selection is *ambient*: experiments, campaign builders and the perf harness
construct scenarios deep inside helper functions, so the active backend
travels in a :class:`~contextvars.ContextVar` (:func:`use_backend`) instead
of threading a parameter through thirty call sites.  ``Scenario(backend=...)``
still accepts an explicit override.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


class BackendUnavailableError(RuntimeError):
    """Raised when a backend's runtime requirements (numpy) are missing."""


@dataclass(frozen=True)
class SimBackend:
    """One registered simulation backend (plain frozen data)."""

    name: str
    description: str
    #: Draw corruption/address-survival uniforms in numpy blocks
    #: (:class:`repro.sim.rng.NumpyBlockUniform`) instead of python batches.
    vector_rng: bool = False
    #: Build :class:`repro.phy.medium.VectorizedMedium` (numpy-block
    #: uniforms, flat FER cache).
    vector_phy: bool = False
    #: Precompute DCF slot-delay and CW-doubling tables (:mod:`repro.mac.dcf`).
    dcf_tables: bool = False
    #: Uniform block size for ``vector_rng`` backends.
    rng_block: int = 4096
    #: True when the backend needs numpy importable at scenario-build time.
    requires_numpy: bool = False
    #: Golden-trace filename suffix.  Empty means the backend promises
    #: byte-identical replay of the ``scalar`` golden set; a non-empty
    #: suffix (e.g. ``"mybackend"``) gives it its own committed files via
    #: :func:`repro.perf.golden.trace_filename`.
    trace_suffix: str = ""

    @property
    def is_reference(self) -> bool:
        """True for the backend the golden traces were captured on."""
        return self.name == "scalar"

    @property
    def cache_key(self) -> str:
        """Token folded into the result-cache version for this backend.

        Backends that are bit-exact against the reference share its cache
        (equal seeds produce equal floats, so entries are interchangeable);
        a backend with its own golden set gets its own cache namespace.
        """
        return "" if not self.trace_suffix else f"backend={self.name}"


BACKENDS: dict[str, SimBackend] = {
    "scalar": SimBackend(
        "scalar",
        "reference pure-python hot paths (golden traces captured here)",
    ),
    "vectorized": SimBackend(
        "vectorized",
        "numpy-batched reach/FER tables, block RNG, DCF transition tables "
        "(bit-exact against scalar)",
        vector_rng=True,
        vector_phy=True,
        dcf_tables=True,
        requires_numpy=True,
    ),
}


def numpy_available() -> bool:
    """True when numpy imports cleanly (the vectorized backend's only dep)."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy ships in CI images
        return False
    return True


def backend_names(available_only: bool = False) -> list[str]:
    """Registered backend names, registration order.

    ``available_only=True`` drops backends whose runtime requirements are
    missing (a numpy-less interpreter still lists and runs ``scalar``).
    """
    names = list(BACKENDS)
    if available_only and not numpy_available():
        names = [n for n in names if not BACKENDS[n].requires_numpy]
    return names


def resolve_backend(backend: "SimBackend | str | None") -> SimBackend:
    """Accept a :class:`SimBackend`, a name, or None (the ambient backend).

    Raises a readable ``KeyError`` for unknown names and
    :class:`BackendUnavailableError` when the backend needs numpy and the
    interpreter has none — callers on numpy-less machines keep working as
    long as they stick to ``scalar``.
    """
    if backend is None:
        return current_backend()
    if isinstance(backend, SimBackend):
        resolved = backend
    elif isinstance(backend, str):
        resolved = BACKENDS.get(backend)
        if resolved is None:
            raise KeyError(
                f"unknown simulation backend {backend!r}; "
                f"known backends: {backend_names()}"
            )
    else:
        raise TypeError(
            f"backend must be SimBackend, name or None, got {type(backend).__name__}"
        )
    if resolved.requires_numpy and not numpy_available():
        raise BackendUnavailableError(
            f"backend {resolved.name!r} requires numpy, which is not "
            "installed; use backend='scalar'"
        )
    return resolved


#: The ambient backend: what :class:`~repro.net.scenario.Scenario` builds
#: when no explicit ``backend=`` is given.  Defaults to the reference
#: implementation so existing callers are untouched.
_ACTIVE: ContextVar[SimBackend] = ContextVar("sim_backend", default=BACKENDS["scalar"])


def current_backend() -> SimBackend:
    """The ambient backend (``scalar`` unless inside :func:`use_backend`)."""
    return _ACTIVE.get()


@contextmanager
def use_backend(backend: "SimBackend | str | None") -> Iterator[SimBackend]:
    """Select the ambient backend for the duration of the ``with`` block.

    >>> from repro.sim.backend import use_backend, current_backend
    >>> with use_backend("vectorized"):
    ...     current_backend().name
    'vectorized'
    >>> current_backend().name
    'scalar'
    """
    resolved = resolve_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "SimBackend",
    "backend_names",
    "current_backend",
    "numpy_available",
    "resolve_backend",
    "use_backend",
]
