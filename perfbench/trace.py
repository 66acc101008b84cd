"""In-memory span tracer and the wrappers that feed it.

Only a traced run (``--trace 1``) installs anything: an :class:`Installer`
(driven by :func:`perfbench.layers.install`) replaces public functions of
``repro`` with thin wrappers that open a span around each call, and puts
the originals back afterwards.  Nothing in ``src/`` is edited, and an
untraced run executes the program's own code paths only.

A span records its name, start, end, parent span and op id.  Its *self
time* is its duration minus the part of that interval its child spans
cover (the union of the children's intervals, so children running in
parallel threads are not subtracted twice).  The current span lives in a
:class:`~contextvars.ContextVar`, so asyncio tasks and ``asyncio.to_thread``
workers see the right parent.

High-frequency spans inside the simulator (one per event) are aggregated
per op as they close; coarse spans (builds, runs, fleet and campaign calls)
are also kept individually and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Iterable

_current: ContextVar["Span | None"] = ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "kids")

    def __init__(self, sid: int, name: str, start: float, parent: "Span | None", op: Any):
        self.id = sid
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.op = op
        self.kids: list[tuple[float, float]] | None = None


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Spans and counts in memory, keyed by the op they belong to."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Id of the op in progress; spans and counts on any thread use it.
        self.op: Any = None
        #: The op's own span.  A span opened with no parent in its context
        #: (the service loop thread) becomes its child, so the op's self time
        #: is the time no traced layer was running on any thread.
        self.root: Span | None = None
        self.self_time: dict[tuple[Any, str], float] = defaultdict(float)
        self.calls: dict[tuple[Any, str], int] = defaultdict(int)
        self.counts: dict[tuple[Any, str], float] = defaultdict(float)
        #: Individually kept spans: (id, name, start, end, parent id, op).
        self.spans: list[tuple[int, str, float, float, int | None, Any]] = []
        self._ids = itertools.count(1)

    def enter(self, name: str) -> tuple[Span, Any]:
        parent = _current.get()
        if parent is None or parent.end is not None:
            # No open parent here: a thread or task outside the op's call
            # chain (a task inherits the context it was created in, whose
            # span may have closed since).
            parent = self.root
        span = Span(next(self._ids), name, self.clock(), parent, self.op)
        return span, _current.set(span)

    def exit(self, span: Span, token: Any, keep: bool = False) -> None:
        end = span.end = self.clock()
        _current.reset(token)
        own = end - span.start
        if span.kids:
            own -= covered(span.kids, span.start, end)
        key = (span.op, span.name)
        self.self_time[key] += own
        self.calls[key] += 1
        parent = span.parent
        if parent is not None:
            if parent.kids is None:
                parent.kids = []
            parent.kids.append((span.start, end))
        if keep:
            self.spans.append(
                (span.id, span.name, span.start, end,
                 parent.id if parent is not None else None, span.op)
            )

    def span(self, name: str, keep: bool = True) -> "_SpanContext":
        return _SpanContext(self, name, keep)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.op, name)] += value

    def write(self, path: str | Path) -> None:
        """Write the kept spans and the per-op aggregates as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"span": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
            for (op, name), seconds in sorted(self.self_time.items(), key=str):
                handle.write(json.dumps(
                    {"op": op, "name": name, "self_s": seconds,
                     "calls": self.calls[(op, name)]}) + "\n")
            for (op, name), value in sorted(self.counts.items(), key=str):
                handle.write(json.dumps({"op": op, "count": name, "value": value}) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "keep", "_open")

    def __init__(self, tracer: Tracer, name: str, keep: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.keep = keep

    def __enter__(self) -> Span:
        self._open = self.tracer.enter(self.name)
        return self._open[0]

    def __exit__(self, *_exc: object) -> None:
        span, token = self._open
        self.tracer.exit(span, token, self.keep)


# ------------------------------------------------------------- wrappers ---


def traced(tracer: Tracer, fn: Callable, name: str, keep: bool,
           after: Callable[..., None] | None = None) -> Callable:
    """``fn`` inside a span; ``after(result, *args, **kwargs)`` may count."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            span, token = tracer.enter(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.exit(span, token, keep)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span, token = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span, token, keep)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


#: Event callbacks are attributed to a layer by the module that defines
#: them; first matching prefix wins.
CALLBACK_LAYERS = (
    ("repro.phy.error", "phy.error"),
    ("repro.phy", "phy.medium"),
    ("repro.mac", "mac.dcf"),
    ("repro.transport", "transport"),
    ("repro.core.detection", "detection"),
    ("repro.sim", "sim.callback"),
)


def callback_layer(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in CALLBACK_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "unlisted:" + (module or type(fn).__name__)


class Installer:
    """Installs wrappers and puts every original back on :meth:`restore`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` (a class or module attribute) until restore."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str, keep: bool = False,
               after: Callable[..., None] | None = None) -> None:
        """Wrap ``cls.attr`` (a plain method defined on ``cls``)."""
        self.replace(cls, attr, traced(self.tracer, cls.__dict__[attr], name, keep, after))

    def function(self, module: Any, attr: str, name: str, keep: bool = True,
                 after: Callable[..., None] | None = None) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = traced(self.tracer, original, name, keep, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.replace(mod, key, wrapper)

    def scheduler(self, cls: type, attrs: Iterable[str]) -> None:
        """Route every callback scheduled through ``cls.attr`` via a span.

        The callback is scheduled as an argument of a ``dispatch`` function
        under the same time and sequence number, so the event loop fires it
        in the same order; only the call gains a span named after the
        callback's layer.
        """
        tracer = self.tracer
        layers: dict[Any, str] = {}

        def dispatch(fn: Callable, *args: Any) -> Any:
            key = getattr(fn, "__func__", fn)
            layer = layers.get(key)
            if layer is None:
                layer = layers[key] = callback_layer(fn)
            span, token = tracer.enter(layer)
            try:
                return fn(*args)
            finally:
                tracer.exit(span, token)

        for attr in attrs:
            original = cls.__dict__[attr]

            def schedule(sim: Any, when: float, fn: Callable, *args: Any,
                         _original: Callable = original) -> Any:
                return _original(sim, when, dispatch, fn, *args)

            self.replace(cls, attr, functools.wraps(original)(schedule))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
