"""Tests of the benchmark's own helpers (no simulation runs here).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import threading

import pytest

from perfbench import measure
from perfbench.layers import layer_metrics
from perfbench.trace import Installer, Tracer, covered, traced


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


# ------------------------------------------------------- tail percentile ---


@pytest.mark.parametrize(
    "n, expected",
    [(10, 50), (19, 50), (20, 50), (21, 52), (99, 89), (100, 90), (101, 90),
     (200, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 37, 100, 163, 999])
def test_tail_leaves_at_least_ten_samples_beyond_and_no_higher_does(n):
    values = list(range(n))
    p = measure.tail_percentile(n)
    tail = measure.nearest_rank(values, p)
    assert sum(v > tail for v in values) >= 10
    if p < 99:
        higher = measure.nearest_rank(values, p + 1)
        assert sum(v > higher for v in values) < 10


def test_nearest_rank_picks_sample_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.nearest_rank(values, 50) == 3.0
    assert measure.nearest_rank(values, 80) == 4.0
    assert measure.nearest_rank(values, 100) == 5.0
    assert measure.nearest_rank(values, 1) == 1.0
    with pytest.raises(ValueError):
        measure.nearest_rank([], 50)


def test_summarise_reports_the_tail_percentile_used():
    summary = measure.summarise([float(v) for v in range(1, 101)])
    assert summary == {"p50": 50.0, "tail": 90.0, "tail_pct": 90, "n": 100}


# ------------------------------------------------ reference normalisation ---


def test_normalise_divides_by_mean_of_bracketing_references():
    assert measure.normalise(2.0, 0.5, 1.5) == pytest.approx(2.0)


def test_normalise_cancels_a_uniform_slowdown():
    fast = measure.normalise(0.120, 0.002, 0.002)
    slow = measure.normalise(0.120 * 1.7, 0.002 * 1.7, 0.002 * 1.7)
    assert slow == pytest.approx(fast)


def test_normalise_rejects_non_positive_reference():
    with pytest.raises(ValueError):
        measure.normalise(1.0, 0.0, 0.0)


def test_reference_checkpoint_is_median_of_repeats():
    # Three kernel calls lasting 3, 1 and 2 clock units.
    clock = fake_clock([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
    assert measure.REF_REPEATS == 3
    assert measure.reference_checkpoint(clock) == 2.0


def test_reference_kernel_is_frozen():
    assert measure.reference_kernel() == measure.REF_CHECKSUM
    assert measure.reference_kernel() == measure.REF_CHECKSUM


# ------------------------------------------------------ span self time ---


def test_self_time_subtracts_nested_children():
    # op [0,10] > a [1,4] > b [2,3];  op > c [5,9]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.op = 7
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert dict(tracer.self_time) == {(7, "op"): 3, (7, "a"): 2, (7, "b"): 1, (7, "c"): 4}
    ids = {name: (sid, parent) for sid, name, _s, _e, parent, _op in tracer.spans}
    assert ids["b"][1] == ids["a"][0]
    assert ids["a"][1] == ids["op"][0] == ids["c"][1]
    assert ids["op"][1] is None


def test_covered_counts_overlapping_children_once():
    assert covered([(1, 5), (3, 8)], 0, 10) == 7
    assert covered([(3, 8), (1, 5), (9, 12)], 0, 10) == 8
    assert covered([], 0, 10) == 0


def test_span_without_open_parent_is_adopted_by_the_op():
    tracer = Tracer(clock=fake_clock([0, 2, 6, 10]))
    tracer.op = 1
    op_span, token = tracer.enter("op")
    tracer.root = op_span
    seen = {}

    def worker():
        with tracer.span("service") as span:
            seen["parent"] = span.parent
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.exit(op_span, token)
    assert seen["parent"] is op_span
    assert tracer.self_time[(1, "op")] == 6
    assert tracer.self_time[(1, "service")] == 4


def test_installer_wraps_and_restores():
    class Thing:
        def work(self, x):
            return x + 1

    original = Thing.__dict__["work"]
    tracer = Tracer()
    installer = Installer(tracer)
    installer.method(Thing, "work", "thing")
    assert Thing().work(1) == 2
    assert tracer.calls[(None, "thing")] == 1
    installer.restore()
    assert Thing.__dict__["work"] is original


def test_traced_runs_after_hook_with_result_and_arguments():
    tracer = Tracer()
    seen = []
    wrapped = traced(tracer, lambda a, b: a * b, "mul", keep=False,
                     after=lambda result, a, b: seen.append((result, a, b)))
    assert wrapped(3, 4) == 12
    assert seen == [(12, 3, 4)]


# ------------------------------------------------------ per-layer counts ---


def test_layer_counts_cover_exactly_one_pass_of_the_pool():
    # A pool of two inputs: ops 1 and 2 are one pass.  Ops after it do not
    # count, so the numbers do not depend on how many ops a run managed.
    ops = [
        (1, 1.0, {"sim.events": 100.0, "mac.tx_attempts": 10.0, "mac.retries": 1.0}),
        (2, 1.0, {"sim.events": 300.0, "mac.tx_attempts": 30.0, "mac.retries": 7.0}),
        (3, 1.0, {"sim.events": 900.0, "mac.tx_attempts": 90.0, "mac.retries": 90.0}),
    ]
    metrics = layer_metrics(Tracer(), ops, pass_size=2)
    assert metrics["sim.events"] == 200.0
    assert metrics["mac.tx_attempts"] == 20.0
    assert metrics["mac.retry_ratio"] == pytest.approx(0.2)
    assert metrics["obs.registry_writes"] == 0.0
