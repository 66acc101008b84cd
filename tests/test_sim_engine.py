"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_fifo_tie_break_at_equal_times():
    sim = Simulator()
    fired = []
    for tag in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, tag)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42.0]
    assert sim.now == 42.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0  # clock advanced to the bound
    sim.run(until=200.0)
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert not event.pending


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)  # must not raise


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(sim.now - 5.0, lambda: None)


def test_schedule_rejects_nan_and_inf():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_at(math.nan, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(math.inf, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def evil():
        sim.run()

    sim.schedule(1.0, evil)
    with pytest.raises(RuntimeError):
        sim.run()


def test_pending_events_counts_only_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(e1)
    assert sim.pending_events == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=50))
def test_property_fire_order_is_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_never_fire(specs):
    sim = Simulator()
    fired = []
    events = []
    for delay, cancel in specs:
        events.append((sim.schedule(delay, fired.append, delay), cancel))
    for event, cancel in events:
        if cancel:
            sim.cancel(event)
    sim.run()
    expected = sorted(d for (d, c) in specs if not c)
    assert sorted(fired) == expected


# ---------------------------------------------------- fast-path additions --


def test_cancelled_timer_rearmed_same_tick_never_fires():
    """Regression for the O(1)-cancellation rework: a timer cancelled and
    re-armed for the *same instant* within one tick must fire exactly once —
    under the old lazy-scan scheduler the stale heap entry and the fresh one
    were distinct objects, and the generation-counter design must preserve
    that (the testbed emulation re-arms NAV timers this way on nearly every
    overheard frame)."""
    sim = Simulator()
    fired = []
    state = {}

    def rearm():
        sim.cancel(state["event"])
        state["event"] = sim.schedule_at(10.0, fired.append, "new")

    state["event"] = sim.schedule_at(10.0, fired.append, "old")
    sim.schedule(5.0, rearm)
    sim.run()
    assert fired == ["new"]


def test_cancel_rearm_storm_fires_only_last():
    sim = Simulator()
    fired = []
    event = sim.schedule(100.0, fired.append, 0)
    for i in range(1, 500):
        sim.cancel(event)
        event = sim.schedule(100.0, fired.append, i)
    sim.run()
    assert fired == [499]
    assert sim.pending_events == 0


def live_entries(sim):
    """Heap entries that will still fire, by a sweep over the heap."""
    return sum(
        1
        for _, _, fn, gen in sim._heap
        if fn.__class__ is not Event or gen == fn.gen
    )


def _rearm_storm(rearm):
    """A timer pushed back 300 times among 150 one-shot events.

    ``rearm(sim, event, time)`` moves the timer and returns its handle.
    Returns the fire order and the counters after every step.
    """
    sim = Simulator()
    fired = []
    for i in range(150):
        sim.schedule(float(i % 7), fired.append, ("one-shot", i))
    timer = sim.schedule(1.0, fired.append, "timer")
    counters = []
    for step in range(300):
        timer = rearm(sim, timer, sim.now + 1.0 + step % 5)
        assert sim.pending_events == live_entries(sim)
        counters.append(
            (sim.events_cancelled, sim.pending_events, sim.compactions, len(sim._heap))
        )
        if step % 50 == 0:
            sim.run(until=sim.now + 0.5)
    sim.run()
    return fired, counters, sim.events_processed


def test_rearm_matches_cancel_then_schedule_at():
    """Same fire order, cancellations, live count, compactions and heap size."""

    def cancel_and_schedule(sim, event, time):
        sim.cancel(event)
        return sim.schedule_at(time, event.fn, *event.args)

    def rearm(sim, event, time):
        sim.rearm_at(event, time)
        return event

    reference = _rearm_storm(cancel_and_schedule)
    assert reference[1][-1][2] > 0, "the storm must trigger compactions"
    assert _rearm_storm(rearm) == reference


def _timer_storm(arm):
    """A timer armed 300 times among 150 one-shot events.  Between arms it
    is sometimes cancelled and sometimes left to fire.

    ``arm(sim, handle, time, callback)`` arms ``callback("timer")`` at
    ``time`` (``handle`` is None the first time) and returns its handle.
    Returns the fire order and the counters after every step.
    """
    sim = Simulator()
    fired = []
    for i in range(150):
        sim.schedule(float(i % 7), fired.append, ("one-shot", i))
    handle = None
    counters = []
    for step in range(300):
        handle = arm(sim, handle, sim.now + 1.0 + step % 5, fired.append)
        if step % 7 == 3:
            sim.cancel(handle)
        assert sim.pending_events == live_entries(sim)
        counters.append(
            (sim.events_cancelled, sim.pending_events, sim.compactions, len(sim._heap))
        )
        if step % 50 == 0:
            sim.run(until=sim.now + 0.5)
        elif step % 40 == 0:
            sim.run(until=sim.now + 6.0)  # long enough for the timer to fire
    sim.run()
    return fired, counters, sim.events_processed


def test_timer_matches_a_fresh_handle_per_arm():
    """Re-arming one timer — pending, fired, cancelled or never armed — has
    the fire order and counters of a cancel plus a fresh schedule_at."""

    def fresh(sim, handle, time, callback):
        sim.cancel(handle)
        return sim.schedule_at(time, callback, "timer")

    def reuse(sim, handle, time, callback):
        if handle is None:
            handle = sim.timer(callback, "timer")
        sim.rearm_at(handle, time)
        assert handle.pending
        return handle

    reference = _timer_storm(fresh)
    assert reference[1][-1][2] > 0, "the storm must trigger compactions"
    assert reference[0].count("timer") > 1, "the timer must fire more than once"
    assert _timer_storm(reuse) == reference


@pytest.mark.parametrize("state", ["fired", "cancelled", "never armed"])
def test_rearm_of_an_idle_handle_is_a_fresh_schedule_at(state):
    """No cancellation counted, a fresh seq: a tie at the same time fires in
    arming order, exactly as for a new handle."""

    def run(rearm):
        sim = Simulator()
        fired = []
        for i in range(6):
            sim.call_at(float(i), fired.append, i)
        if state == "never armed":
            handle = sim.timer(fired.append, "timer")
        else:
            handle = sim.schedule(1.0, fired.append, "timer")
            if state == "cancelled":
                sim.cancel(handle)
        sim.run(until=2.5)
        assert not handle.pending
        rearm(sim, handle, 4.0)
        sim.call_at(4.0, fired.append, "tie")
        counters = (sim.events_cancelled, sim.pending_events, sim.compactions)
        sim.run()
        return fired, counters, sim.events_processed, sim._seq

    def fresh(sim, handle, time):
        sim.schedule_at(time, handle.fn, *handle.args)

    def reuse(sim, handle, time):
        sim.rearm_at(handle, time)
        assert handle.pending

    assert run(reuse) == run(fresh)


def test_rearm_rejects_past_nan_and_infinite_times():
    sim = Simulator()
    sim.run(until=5.0)
    live = sim.schedule(1.0, lambda: None)
    idle = sim.timer(lambda: None)
    for handle in (live, idle):
        for time in (4.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.rearm_at(handle, time)
    assert live.pending and not idle.pending
    assert sim.pending_events == 1 and sim.events_cancelled == 0


def test_timer_pushes_nothing_until_armed():
    sim = Simulator()
    fired = []
    timer = sim.timer(fired.append, "timer")
    assert not timer.pending
    assert sim._heap == [] and sim.pending_events == 0
    sim.cancel(timer)  # cancelling an idle timer counts nothing
    assert sim.events_cancelled == 0
    sim.call_after(1.0, fired.append, "first")
    assert sim._heap[0][1] == 0  # the timer took no seq
    sim.run()
    assert fired == ["first"] and sim.events_processed == 1


def test_drop_pending_unhooks_every_timer():
    """Idle timers are unhooked too: their owner keeps them between arms,
    and a kept callback would close a cycle back to it."""
    sim = Simulator()
    calls = []
    idle = sim.timer(calls.append, "idle")
    fired = sim.timer(calls.append, "fired")
    sim.rearm_at(fired, 1.0)
    sim.run()
    assert calls == ["fired"]
    armed = sim.timer(calls.append, "armed")
    sim.rearm_at(armed, 5.0)
    sim._drop_pending()
    for timer in (idle, fired, armed):
        assert timer.fn is None and not timer.pending
    assert sim.pending_events == 0 and sim._timers == []


def test_pending_events_is_exact_through_cancel_storms():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    for event in events[::2]:
        sim.cancel(event)
    assert sim.pending_events == 100
    for event in events[::2]:
        sim.cancel(event)  # double-cancel must not double-count
    assert sim.pending_events == 100
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_processed == 100


def test_call_after_orders_with_schedule_fifo():
    """Fire-and-forget and cancellable events share one (time, seq) order."""
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.call_after(5.0, fired.append, "b")
    sim.schedule(5.0, fired.append, "c")
    sim.call_at(5.0, fired.append, "d")
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_call_after_validates_like_schedule():
    import math

    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_after(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.call_at(sim.now - 5.0, lambda: None)
    with pytest.raises(ValueError):
        sim.call_at(math.nan, lambda: None)
    with pytest.raises(ValueError):
        sim.call_after(math.inf, lambda: None)


def test_call_after_counts_in_pending_and_processed():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_processed == 2


def test_run_until_boundary_event_fires_next_run():
    """An event beyond ``until`` survives the bounded run intact."""
    sim = Simulator()
    fired = []
    sim.call_after(10.0, fired.append, "x")
    sim.schedule(30.0, fired.append, "y")
    sim.run(until=20.0)
    assert fired == ["x"]
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["x", "y"]


def test_compaction_preserves_order_and_counts():
    """Heavy cancellation triggers heap compaction; survivors still fire in
    exact (time, FIFO) order and the counters stay consistent."""
    sim = Simulator()
    fired = []
    keep = []
    for i in range(2000):
        event = sim.schedule(float(i), fired.append, i)
        if i % 10 == 0:
            keep.append(i)
        else:
            sim.cancel(event)
    assert sim.pending_events == len(keep)
    sim.run()
    assert fired == keep
    assert sim.events_processed == len(keep)


def test_compaction_during_run_keeps_firing_the_live_heap():
    """A callback whose cancellations compact the heap mid-run: the run goes
    on over the compacted heap, firing the survivors and an event pushed
    after the compaction in (time, FIFO) order."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(10.0 + i, fired.append, i) for i in range(200)]

    def storm():
        fired.append("storm")
        for i, event in enumerate(events):
            if i % 4:
                sim.cancel(event)
        sim.call_after(0.5, fired.append, "after")

    sim.call_at(5.0, storm)
    sim.run()
    assert sim.compactions == 1
    assert fired == ["storm", "after"] + [i for i in range(200) if i % 4 == 0]
    assert sim.events_processed == 52 and sim.pending_events == 0


def test_cancel_inside_callback_prevents_same_time_event():
    """A callback can cancel an event scheduled for the same instant."""
    sim = Simulator()
    fired = []
    victim = sim.schedule(10.0, fired.append, "victim")

    def killer():
        sim.cancel(victim)

    # Same fire time, scheduled earlier -> FIFO runs killer first.
    sim.schedule_at(10.0, killer)  # note: scheduled after victim
    sim.run()
    # victim was scheduled first so it fires before killer can act.
    assert fired == ["victim"]

    sim2 = Simulator()
    fired2 = []
    state = {}

    def killer2():
        sim2.cancel(state["victim"])

    sim2.schedule_at(10.0, killer2)
    state["victim"] = sim2.schedule_at(10.0, fired2.append, "victim")
    sim2.run()
    assert fired2 == []


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6),
            st.sampled_from(["keep", "cancel", "forget"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_mixed_payloads_fire_in_order(specs):
    """schedule/call_after mixes preserve the global (time, seq) order and
    the live-event accounting, under arbitrary cancellation."""
    sim = Simulator()
    fired = []
    events = []
    for delay, action in specs:
        if action == "forget":
            sim.call_after(delay, fired.append, delay)
        else:
            events.append((sim.schedule(delay, fired.append, delay), action))
    for event, action in events:
        if action == "cancel":
            sim.cancel(event)
    expected = sorted(d for d, a in specs if a != "cancel")
    assert sim.pending_events == len(expected)
    sim.run()
    assert fired == expected
    assert sim.pending_events == 0


def test_compaction_inside_cancel_keeps_pending_exact():
    """The cancel that triggers a compaction leaves its own entry behind (the
    generation bump comes after the compaction); the live count stays exact
    through it and through popping that entry."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(float(i + 1), fired.append, i) for i in range(130)]
    for event in events[:65]:
        sim.cancel(event)
        assert sim.pending_events == live_entries(sim)
    assert sim.compactions == 0
    sim.cancel(events[65])  # 66 dead > 64 live: compacts inside cancel()
    assert sim.compactions == 1
    assert len(sim._heap) == 65  # the 64 live entries plus events[65]'s
    assert sim.pending_events == live_entries(sim) == 64
    sim.run(until=66.5)  # pops events[65]'s dead entry
    assert fired == [] and sim.pending_events == live_entries(sim) == 64
    sim.run()
    assert fired == list(range(66, 130))
    assert sim.pending_events == 0 and sim.events_processed == 64


def test_run_until_stops_and_resumes_counting():
    sim = Simulator()
    fired = []
    for t in (5.0, 10.0, 20.0, 30.0, 40.0):
        sim.call_at(t, fired.append, t)
    dead = sim.schedule(15.0, fired.append, "cancelled")
    sim.cancel(dead)
    sim.run(until=12.0)
    assert (fired, sim.now, sim.events_processed) == ([5.0, 10.0], 12.0, 2)
    assert sim.pending_events == live_entries(sim) == 3
    sim.run(until=20.0)  # an event exactly at the bound fires
    assert (fired[-1], sim.now, sim.events_processed) == (20.0, 20.0, 3)
    assert sim.pending_events == live_entries(sim) == 2
    sim.run(until=25.0)
    assert (sim.now, sim.events_processed, sim.pending_events) == (25.0, 3, 2)
    sim.run()
    assert fired == [5.0, 10.0, 20.0, 30.0, 40.0]
    assert (sim.now, sim.events_processed, sim.pending_events) == (40.0, 5, 0)


def test_drop_pending_forgets_live_and_dead_entries():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 1), fired.append, i) for i in range(6)]
    sim.call_after(2.5, fired.append, "forget")
    sim.cancel(handles[0])
    sim.cancel(handles[1])
    sim._drop_pending()
    assert sim._heap == [] and sim.pending_events == 0
    assert not any(handle.pending for handle in handles)
    sim.cancel(handles[2])  # a dropped handle is no longer pending
    assert sim.events_cancelled == 2 and sim.pending_events == 0
    sim.call_after(1.0, fired.append, "after")
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["after"] and sim.pending_events == 0


def test_events_processed_counts_through_a_raising_callback():
    sim = Simulator()
    fired = []

    def boom():
        fired.append("boom")
        raise RuntimeError("boom")

    sim.call_after(1.0, fired.append, "a")
    sim.schedule(2.0, boom)
    sim.call_after(3.0, fired.append, "c")
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["a", "boom"] and sim.events_processed == 2
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["a", "boom", "c"] and sim.events_processed == 3


def _fanout_reference(sim, duration, on_end, tx, hearers):
    """The per-callback sequence ``Simulator.call_fanout`` replaces: the
    sender's end, then every start, then every end."""
    sim.call_after(duration, on_end)
    for on_start, _on_stop, rss, delay, decodable in hearers:
        sim.call_after(delay, on_start, tx, rss, decodable)
    for _on_start, on_stop, _rss, delay, _decodable in hearers:
        sim.call_after(duration + delay, on_stop, tx)


def _fanout_sims(hearers, duration, now=1234.567):
    """(fanout, reference) simulators after pushing the same fan-out."""
    sims = []
    for push in (Simulator.call_fanout, _fanout_reference):
        sim = Simulator()
        sim.track_heap = True
        sim.call_at(now, lambda: None)
        sim.run()
        sim.call_after(3.0, print)  # an entry already queued
        try:
            push(sim, duration, print, "tx", hearers)
        except ValueError as exc:
            sims.append((sim, str(exc)))
        else:
            sims.append((sim, None))
    return sims


def test_call_fanout_pushes_the_keys_of_the_call_after_sequence():
    # At these numbers the association of the end time matters.
    assert (1234.567 + 957.1) + 0.7 != 1234.567 + (957.1 + 0.7)
    hearers = [
        (print, repr, 0.5, 0.7, True),
        (print, repr, 0.25, 0.2, False),
        (print, repr, 0.125, 0.0, True),
    ]
    (fanout, error), (reference, ref_error) = _fanout_sims(hearers, 957.1)
    assert error is ref_error is None
    assert sorted(fanout._heap) == sorted(reference._heap)
    assert fanout._seq == reference._seq == 9
    assert fanout.heap_high_water == reference.heap_high_water == 8
    assert fanout.pending_events == reference.pending_events == 8


@pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
def test_call_fanout_rejects_a_bad_duration_before_pushing(duration):
    (fanout, error), (reference, ref_error) = _fanout_sims(
        [(print, repr, 0.5, 0.3, True)], duration
    )
    assert error == ref_error is not None
    assert len(fanout._heap) == 1 and fanout._seq == 2


@pytest.mark.parametrize("bad_delay", [math.nan, math.inf, -0.5])
def test_call_fanout_checks_each_delay_like_call_after(bad_delay):
    hearers = [(print, repr, 0.5, 0.3, True), (print, repr, 0.25, bad_delay, True)]
    (fanout, error), (reference, ref_error) = _fanout_sims(hearers, 957.1)
    assert error == ref_error is not None
    assert sorted(fanout._heap) == sorted(reference._heap)
    assert fanout._seq == reference._seq
