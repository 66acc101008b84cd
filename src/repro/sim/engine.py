"""Event-heap discrete-event simulator.

Time is a float number of microseconds.  All subsystems (PHY, MAC, transport)
schedule callbacks on one shared :class:`Simulator` instance.

Fast-path design (bit-identical to the original implementation — the golden
trace suite in ``tests/test_golden_traces.py`` holds this down):

* The heap stores flat four-element tuples, never objects with a
  Python-level ``__lt__``: ``(time, seq, fn, args)`` for a fire-and-forget
  callback and ``(time, seq, event, gen)`` for a cancellable
  :class:`Event` handle, told apart by ``entry[2].__class__ is Event``.  No
  push builds a nested payload tuple.  ``seq`` is a unique monotonically
  increasing integer, so tuple comparison is decided entirely inside C on
  the first two elements — the last two are never compared.  Event ordering
  is therefore the exact total order ``(time, seq)`` the original
  ``Event.__lt__`` used.
* Cancellation is O(1) via **generation counters**: every :class:`Event`
  handle carries a generation, the heap entry records the generation it was
  scheduled with, and a popped entry fires only when the two still match.
  Cancelling bumps the handle's generation (a fired handle's entry has
  already left the heap), so stale entries — including a timer cancelled
  and re-armed within the same tick — are skipped without ever scanning
  the heap.
* :attr:`Simulator.pending_events` is O(1), not a sweep over the heap (the
  old sweep was hot in cancel-heavy testbed-emulation runs, where NAV
  timers are re-armed on nearly every overheard frame).  The simulator counts
  the heap's *dead* entries — those orphaned by a cancellation — and reads
  the live count as ``len(heap) - dead``, so a push or a live pop touches no
  counter; only a cancellation and a dead pop do.
* :meth:`Simulator.run` counts :attr:`~Simulator.events_processed` in a local
  and writes it back when it returns (or raises).
* Dead entries left behind by cancellations are compacted away once they
  outnumber live ones (amortized O(1) per cancellation), so cancel/re-arm
  storms cannot degrade ``heappush``/``heappop`` to log of garbage.  The
  compaction rewrites the heap list in place, so :meth:`Simulator.run`
  keeps one reference to it for the whole run.
* Timers live with their owner.  A component that arms the same callback
  again and again — the MAC's access countdown, CTS/ACK timeouts and NAV,
  the TCP retransmission timer — takes one idle handle from
  :meth:`Simulator.timer` and (re-)arms it with :meth:`Simulator.rearm_at`,
  whether it is pending, fired or cancelled, instead of allocating a new
  :class:`Event` per arm.  The counters and the event order are exactly
  those of a cancel (when pending) plus a fresh :meth:`schedule_at`, and
  :meth:`Simulator.run` fires a handle inline, without a method call;
  :meth:`Simulator.rearm_at` does a pending handle's cancel bookkeeping
  inline too.
* Fire-and-forget callbacks — the overwhelming majority: frame arrivals,
  transmit-end notifications, SIFS responses — can skip the handle
  allocation entirely via :meth:`Simulator.call_after` / :meth:`call_at`.
  One transmitted frame's whole fan-out — the sender's end of transmission
  and every hearer's start and end — is pushed by one
  :meth:`Simulator.call_fanout`, numbered in three blocks: the sender's
  end, then every start, then every end; a hearer's end entry carries only
  the transmission.  The medium hands it one entry per group of hearers the
  frame reaches at the same instant, whose ``rss`` and ``decodable`` slots
  may be the group's columns, and that entry's callback runs every member
  (``repro.phy.medium``, "Equal-delay hearer groups", says why the blocks
  make that the per-hearer order).  Such a callback adds its
  members beyond the first to :attr:`Simulator.grouped_events`, which
  :meth:`Simulator.run` folds into :attr:`~Simulator.events_processed`:
  events count callbacks, while :attr:`~Simulator.pending_events` and
  :attr:`~Simulator.heap_high_water` count heap entries, a group once.
* The simulator keeps a plain instance dict: with 12 attributes it sits
  well below the 30 at which CPython 3.11 stops specialising attribute
  loads on a dict, and slots measured no faster (DESIGN.md §9,
  "Fixed-layout station state, measured").  The DCF MAC, the TCP sender
  and the radios, which cross that line or gain from slots, have
  ``__slots__``.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable

_INF = float("inf")


class Event:
    """A cancellable, re-armable handle for a scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` (armed) or :meth:`Simulator.timer` (idle),
    and may be cancelled with :meth:`Simulator.cancel` (or :meth:`cancel` on
    the event itself) and moved or re-armed with :meth:`Simulator.rearm_at`.
    Cancellation is O(1): it bumps :attr:`gen`, orphaning the heap entry that
    was scheduled under the previous generation.  A handle keeps its callback
    after it fires or is cancelled, so its owner can arm it again.
    """

    __slots__ = ("time", "seq", "fn", "args", "gen", "pending", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.gen = 0  # generation the live heap entry was scheduled with
        #: True while a heap entry will fire this handle: from arming until
        #: it fires or is cancelled.
        self.pending = True
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event so that it never fires."""
        self._sim.cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "idle"
        return f"Event(t={self.time:.3f}us, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event scheduler with a microsecond clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries: (time, seq, fn, args) — the fire-and-forget fast
        # path — or (time, seq, event, gen) for cancellable handles.
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._running = False
        self._dead: int = 0  # heap entries orphaned by a cancellation
        #: Events fired so far; :meth:`run` keeps its own count while it runs
        #: and stores it here when it returns, so read it between runs.  A
        #: callback that one heap entry runs for several (a hearer group)
        #: adds the callbacks beyond the first to :attr:`grouped_events`,
        #: which :meth:`run` folds in here, so the count is per callback.
        self.events_processed: int = 0
        self.grouped_events: int = 0
        self.events_cancelled: int = 0
        self.compactions: int = 0
        #: Largest heap size observed while :attr:`track_heap` is True, in
        #: heap entries: a group of hearers is one entry each way.
        #: Tracking is opt-in (telemetry attaches it): the counter itself
        #: never affects event ordering, only the schedule paths pay one
        #: predictable branch.
        self.track_heap: bool = False
        self.heap_high_water: int = 0
        # Handles made by timer(): they outlive their firings, so
        # _drop_pending must find them even while they are idle.
        self._timers: list[Event] = []

    # ------------------------------------------------------------ schedule --

    def _reject_time(self, time: float) -> None:
        """Raise the right ValueError for a time outside ``[now, inf)``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        raise ValueError(f"invalid event time: {time}")

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if not (time < _INF):  # catches +inf and NaN in one comparison
            self._reject_time(time)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, event, 0))
        if self.track_heap and len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not (self.now <= time < _INF):  # also catches NaN (compares False)
            self._reject_time(time)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, event, 0))
        if self.track_heap and len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)
        return event

    def timer(self, fn: Callable[..., Any], *args: Any) -> Event:
        """An idle handle for ``fn(*args)``, armed later with :meth:`rearm_at`.

        Pushes nothing and takes no ``seq``: an owner that arms, cancels and
        re-arms one timer over and over allocates a single :class:`Event`,
        and the event order is that of a fresh :meth:`schedule_at` per arm.
        """
        event = Event(0.0, -1, fn, args, self)
        event.pending = False
        self._timers.append(event)
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellable handle.

        Identical firing semantics and ordering (same ``(time, seq)`` key),
        but skips the :class:`Event` allocation — the fast path for the
        per-frame callbacks that are never cancelled (frame arrival and
        departure notifications, SIFS-deferred responses).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if not (time < _INF):
            self._reject_time(time)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        if self.track_heap and len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellable handle."""
        if not (self.now <= time < _INF):
            self._reject_time(time)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        if self.track_heap and len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)

    def call_fanout(
        self,
        duration: float,
        on_end: Callable[[], Any],
        tx: Any,
        hearers: list[tuple],
    ) -> None:
        """Push one transmitted frame's whole fan-out in one call.

        ``hearers`` holds ``(on_start, on_stop, rss, delay, decodable)``
        tuples.  Exactly ``call_after(duration, on_end)``, then
        ``call_after(delay, on_start, tx, rss, decodable)`` for every entry
        in list order, then ``call_after(duration + delay, on_stop, tx)`` for
        every entry in list order: the same ``(time, seq)`` keys (a start at
        ``now + delay``, an end at ``now + (duration + delay)``), the same
        checks and the same counters.  An invalid ``duration`` raises before
        anything is pushed.
        """
        now = self.now
        end = now + duration
        if not (duration >= 0.0 and end < _INF):  # also catches NaN
            self.call_after(duration, on_end)  # raises call_after's error
        heap = self._heap
        seq = self._seq
        push = heappush
        inf = _INF
        push(heap, (end, seq, on_end, ()))
        # A failing check replays its call through call_after, which raises
        # exactly where the sequence of calls would.
        for on_start, _on_stop, rss, delay, decodable in hearers:
            seq += 1
            start = now + delay
            if not (delay >= 0.0 and start < inf):
                self._seq = seq
                self.call_after(delay, on_start, tx, rss, decodable)
            push(heap, (start, seq, on_start, (tx, rss, decodable)))
        for _on_start, on_stop, _rss, delay, _decodable in hearers:
            seq += 1
            stop = now + (duration + delay)
            if not stop < inf:
                self._seq = seq
                self.call_after(duration + delay, on_stop, tx)
            push(heap, (stop, seq, on_stop, (tx,)))
        self._seq = seq + 1
        if self.track_heap and len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def _drop_pending(self) -> None:
        """Forget every scheduled callback, for an owner that is going away.

        A queued callback is a bound method of the component that scheduled
        it, and a handle's ``fn`` points back at its owner too, so the heap
        keeps the owner's components in reference cycles — and so does a
        :meth:`timer` its owner keeps while it is idle.  Clears the heap and
        unhooks every queued handle and every timer (``fn = None``, no longer
        pending); :attr:`now` and the counters stay readable, and
        :attr:`pending_events` reads 0.
        """
        for entry in self._heap:
            event = entry[2]
            if event.__class__ is Event:  # a handle's entry: unhook it
                event.fn = None
                event.pending = False
        for event in self._timers:
            event.fn = None
            event.pending = False
        self._timers.clear()
        self._heap.clear()
        self._dead = 0

    # -------------------------------------------------------------- cancel --

    def cancel(self, event: Event | None) -> None:
        """Cancel a previously scheduled event.  ``None`` is ignored.

        Cancelling an event that is not pending (fired, cancelled, idle) is
        a no-op.  Once dead heap entries outnumber live ones (and exceed 64)
        the heap is compacted: amortized O(1) per cancellation, since a
        compaction costs O(n) but at least halves the heap and only runs
        after n/2 cancellations.
        """
        if event is None or not event.pending:
            return
        dead = self._dead = self._dead + 1
        self.events_cancelled += 1
        if dead > 64 and dead + dead > len(self._heap):  # dead > live
            self._compact()
        event.pending = False
        event.gen += 1

    def rearm_at(self, event: Event, time: float) -> None:
        """Arm ``event`` at absolute time ``time``, wherever it stands.

        A pending event is moved: exactly ``cancel(event)`` followed by
        ``schedule_at(time, ...)`` with the same callback — one cancellation
        counted, the same compaction check, a fresh ``seq``.  A fired,
        cancelled or never-armed one (:meth:`timer`) is armed like a fresh
        ``schedule_at``: a fresh ``seq``, no cancellation counted.  Either
        way the handle is reused instead of a new :class:`Event` being
        allocated.
        """
        if not (self.now <= time < _INF):
            self._reject_time(time)
        if event.pending:
            # cancel(event), inline and in its order: orphan the live entry
            # (which a compaction here keeps), then bump the generation.
            dead = self._dead = self._dead + 1
            self.events_cancelled += 1
            if dead > 64 and dead + dead > len(self._heap):  # dead > live
                self._compact()
            event.gen += 1
        else:
            event.pending = True
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        heap = self._heap
        heappush(heap, (time, seq, event, event.gen))
        if self.track_heap and len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def _compact(self) -> None:
        """Drop every orphaned heap entry and re-heapify the rest.

        An entry :meth:`cancel` is cancelling survives (its generation is
        bumped after the compaction), so :attr:`_dead` is recomputed from
        the live count rather than reset to zero.
        """
        heap = self._heap
        live = len(heap) - self._dead
        self.compactions += 1
        # In place: a running :meth:`run` holds this very list.
        heap[:] = [
            entry
            for entry in heap
            if not (entry[2].__class__ is Event and entry[3] != entry[2].gen)
        ]
        heapq.heapify(heap)
        self._dead = len(heap) - live

    # ----------------------------------------------------------------- run --

    def run(self, until: float | None = None) -> None:
        """Run events in timestamp order.

        Stops when the heap is empty, or — if ``until`` is given — once the
        next event would fire strictly after ``until`` (the clock is then
        advanced to ``until``).
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        # Event times are always finite (schedule rejects inf/NaN), so an
        # unbounded run is just a bound no event can exceed.
        bound = _INF if until is None else until
        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while heap:
                time, seq, fn, args = pop(heap)
                if fn.__class__ is Event:  # a handle: ``args`` is its gen
                    if fn.gen != args:
                        self._dead -= 1
                        continue  # cancelled: drop the stale entry
                    if time > bound:
                        # once per run(): restore & stop
                        heappush(heap, (time, seq, fn, args))
                        break
                    self.now = time
                    processed += 1
                    fn.pending = False
                    fn.fn(*fn.args)
                else:  # fire-and-forget callback
                    if time > bound:
                        heappush(heap, (time, seq, fn, args))
                        break
                    self.now = time
                    processed += 1
                    fn(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.events_processed = processed + self.grouped_events
            self.grouped_events = 0
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled heap entries still scheduled (O(1)).

        A group of hearers is one entry each way, so this counts it once.
        """
        return len(self._heap) - self._dead
