"""Reference-normalised timing: the frozen kernel and the summary rules.

Every timing the benchmark reports as ``*_rel`` is an op's wall time divided
by the wall time of :func:`reference_kernel` measured right next to it.  The
machines this runs on change speed by up to 1.7x in phases lasting tens of
seconds (see README.md); a pure-Python kernel timed before and after each op
slows down with it, so the ratio keeps only what the code under test did.

The kernel is FROZEN.  Changing its body or any ``REF_*`` constant
rescales every ``*_rel`` metric and makes all earlier measurements
incomparable; ``REF_CHECKSUM`` fails loudly if it is edited by accident.
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from statistics import median
from typing import Callable, Sequence

#: Events one kernel call schedules (about 2.5 ms of CPython 3.11 on one
#: x86-64 core).
REF_ROUNDS = 2000
#: Stations the kernel's events land on: a working set of a few MB, like a
#: simulation's object graph, not one that sits in the first-level cache.
REF_STATIONS = 20000
#: Kernel calls per checkpoint; the checkpoint reads their median, so one
#: interrupt during a call does not move the reference.
REF_REPEATS = 3
#: What :func:`reference_kernel` returns; guards against edits and makes
#: sure the work is consumed inside the timed region.
REF_CHECKSUM = 6933


class _Station:
    __slots__ = ("name", "nav", "heard")

    def __init__(self, name: str) -> None:
        self.name = name
        self.nav = 0.0
        self.heard = 0

    def hear(self, when: int, size: int) -> int:
        if when > self.nav:
            self.nav = when + size * 0.5
        self.heard += 1
        return (when + size) & 7


class _Event:
    __slots__ = ("time", "fn", "args")

    def __init__(self, time: int, fn: Callable[..., int], args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args


_STATIONS = [_Station(f"s{k}") for k in range(REF_STATIONS)]


def reference_kernel(rounds: int = REF_ROUNDS) -> int:
    """The simulator's instruction mix in miniature (frozen; see module doc).

    An event loop over a heap: each round allocates a ``__slots__`` event
    bound to a pseudo-randomly chosen station's method, pushes it, and
    once the heap holds 256 events pops the earliest, calls it and counts
    it in a dict — heapq push/pop, dict get/set, slot attribute access and
    bound-method calls over a working set larger than the CPU's L2 cache.
    """
    stations = _STATIONS
    heap: list[tuple[int, int, _Event]] = []
    tally: dict[str, int] = {}
    acc = 0
    x = 12345
    for seq in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        station = stations[x % REF_STATIONS]
        event = _Event(seq + (x & 63), station.hear, (seq, x & 1023))
        heappush(heap, (event.time, seq, event))
        if len(heap) > 256:
            _time, _seq, due = heappop(heap)
            acc += due.fn(*due.args)
            name = station.name
            tally[name] = tally.get(name, 0) + 1
    return acc + len(tally)


def reference_checkpoint(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one kernel call takes right now (median of ``REF_REPEATS``)."""
    samples = []
    for _ in range(REF_REPEATS):
        start = clock()
        result = reference_kernel()
        samples.append(clock() - start)
        if result != REF_CHECKSUM:
            raise RuntimeError(
                f"reference kernel returned {result}, expected {REF_CHECKSUM}: "
                "the kernel was edited, which rescales every *_rel metric"
            )
    return median(samples)


def normalise(seconds: float, ref_before: float, ref_after: float) -> float:
    """An op's cost as a multiple of the kernel timed around it."""
    ref = (ref_before + ref_after) / 2.0
    if ref <= 0:
        raise ValueError(f"reference time must be positive, got {ref}")
    return seconds / ref


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by the nearest-rank rule (a sample value)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = 10) -> int:
    """Highest whole percentile with at least ``min_beyond`` samples beyond it.

    "Beyond" means ranked strictly after the percentile's nearest-rank
    sample.  Falls back to 50 (the median) when even it has fewer than
    ``min_beyond`` samples after it.
    """
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100.0) >= min_beyond:
            best = p
    return best


def summarise(values: Sequence[float]) -> dict[str, float]:
    """Median and tail of per-op values, with the tail's percentile."""
    p = tail_percentile(len(values))
    return {
        "p50": nearest_rank(values, 50),
        "tail": nearest_rank(values, p),
        "tail_pct": p,
        "n": len(values),
    }
