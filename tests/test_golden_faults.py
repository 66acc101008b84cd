"""Fault-enabled golden traces, replayed byte-for-byte.

The clean-channel goldens (tests/test_golden_traces.py) cannot see a
change that is bit-exact on quiet media but reorders RNG draws the moment
a fault model hooks into delivery or scheduling.  These captures pin the
two sim-plane fault models that ride the hot paths — the Gilbert–Elliott
bursty channel (a per-link delivery hook with its own stream) and the
periodic jammer (a MAC-less radio transmitting undecodable energy).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.golden import (
    GOLDEN_FAULT_RUNS,
    capture_fault_trace,
    fault_plan,
    fault_trace_filename,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("key", sorted(GOLDEN_FAULT_RUNS))
def test_fault_trace_replays_byte_for_byte(key, tmp_path):
    golden_path = GOLDEN_DIR / fault_trace_filename(key)
    replay_path = tmp_path / fault_trace_filename(key)
    records = capture_fault_trace(key, replay_path)
    assert records > 100, f"{key}: suspiciously short trace ({records} records)"
    golden = golden_path.read_bytes()
    replay = replay_path.read_bytes()
    if golden != replay:
        g_lines = golden.decode().splitlines()
        r_lines = replay.decode().splitlines()
        for i, (g, r) in enumerate(zip(g_lines, r_lines)):
            assert g == r, (
                f"{key}: first divergence at trace record {i}:\n"
                f"  golden: {g}\n  replay: {r}"
            )
        pytest.fail(
            f"{key}: traces differ in length "
            f"({len(g_lines)} golden vs {len(r_lines)} replay)"
        )


def test_fault_plans_actually_bite():
    """Captured parameters must make the faults visible within the trace.

    A fault golden whose model never fires pins nothing — assert each
    committed file shows its impairment: jam bursts in the jammer trace,
    and retransmissions (duplicate DATA sends) well above the clean-channel
    baseline in the bursty-error trace.
    """
    jam_lines = (
        (GOLDEN_DIR / fault_trace_filename("jammer")).read_text().splitlines()
    )
    bursts = [line for line in jam_lines if json.loads(line)["dst"] == "__noise__"]
    assert len(bursts) >= 10, f"only {len(bursts)} jam bursts in 250 ms"

    ge_lines = (
        (GOLDEN_DIR / fault_trace_filename("ge_channel")).read_text().splitlines()
    )
    records = [json.loads(line) for line in ge_lines]
    data = [r for r in records if r["kind"] == "DATA"]
    # fig1_nav_udp's channel is otherwise clean: every DATA retransmission
    # in this trace was caused by the Gilbert-Elliott fades.
    sends = {}
    for r in data:
        key = (r["src"], r["dst"])
        sends[key] = sends.get(key, 0) + 1
    assert sum(sends.values()) > len(set(sends)), "no DATA traffic recorded"
    rts = [r for r in records if r["kind"] == "RTS"]
    assert len(rts) > len(data), (
        "bursty channel should force RTS retries beyond one per DATA frame "
        f"(got {len(rts)} RTS for {len(data)} DATA)"
    )


def test_fault_plan_registry_is_consistent():
    for key in GOLDEN_FAULT_RUNS:
        plan = fault_plan(key)
        assert not plan.empty, f"{key}: committed fault plan is empty"
    with pytest.raises(KeyError):
        fault_plan("nonsense")
