"""Determinism fuzzing: a random scenario must fingerprint identically twice.

The golden traces pin a few hand-picked operating points; this fuzzer walks
the configuration space around them.  Each case derives a small random
topology (pair count, positions, transport mix, greedy misbehavior, error
model, RTS on/off, optional fault plan) deterministically from a case seed
and runs it twice in one process, with a *different* case run in between.
Both runs must give byte-identical traces, equal per-sender airtime and
equal event counts.  That catches state leaking between runs through
process-wide caches (the memoized FER table, per-medium hearer lists, any
module-level memo added later), which the golden tests — one fresh
scenario each — cannot see.  A memo that keeps the *first* value it sees
poisons a case the same way on every re-run, so the quick cases also run
forward in one fresh interpreter and backward in another, and must
fingerprint the same both ways.

Two tiers:

* tier-1 (always on): a fixed 10-case subset, the run-order check over it,
  and a short hypothesis sweep — fast enough for every ``pytest`` run.
* ``-m slow``: a wide hypothesis sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import GreedyConfig
from repro.mac.dcf import DcfMac
from repro.mac.frames import FrameKind
from repro.net.scenario import Scenario
from repro.phy.channel import ChannelConfig
from repro.phy.error import set_ber_all_pairs
from repro.stats.trace import FrameTracer
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.transport.udp import UdpSink

ROOT = Path(__file__).resolve().parent.parent
CASE_DURATION_S = 0.05

#: The always-on subset: first ten case seeds of the fuzz space.
QUICK_CASES = list(range(10))


def _build_case(case_seed: int) -> Scenario:
    """Derive one random-but-deterministic scenario from a case seed.

    All randomness comes from ``random.Random(case_seed)`` at *build* time —
    the simulation itself then runs from ``Scenario(seed=...)``'s own
    streams, so the same case seed always produces the same workload.
    """
    pick = random.Random(case_seed)
    n_pairs = pick.randint(1, 3)
    rts = pick.random() < 0.7
    ranged = pick.random() < 0.3
    s = Scenario(
        seed=1000 + case_seed,
        rts_enabled=rts,
        channel=ChannelConfig(ranges=(55.0, 99.0)) if ranged else None,
    )
    greedy_kind = pick.choice(["none", "nav", "spoof", "fake"])
    positions = {}
    for i in range(n_pairs):
        positions[f"S{i}"] = (pick.uniform(0.0, 30.0), pick.uniform(0.0, 30.0))
        positions[f"R{i}"] = (pick.uniform(0.0, 30.0), pick.uniform(0.0, 30.0))
    for i in range(n_pairs):
        s.add_wireless_node(f"S{i}", position=positions[f"S{i}"])
    for i in range(n_pairs):
        greedy = None
        if i == n_pairs - 1:
            if greedy_kind == "nav":
                frames = frozenset({FrameKind.CTS if rts else FrameKind.ACK})
                greedy = GreedyConfig.nav_inflator(pick.uniform(300.0, 5000.0), frames)
            elif greedy_kind == "spoof" and n_pairs > 1:
                greedy = GreedyConfig.ack_spoofer(victims=frozenset({"R0"}))
            elif greedy_kind == "fake":
                greedy = GreedyConfig.ack_faker()
        s.add_wireless_node(f"R{i}", position=positions[f"R{i}"], greedy=greedy)
    error_kind = pick.choice(["clean", "ber", "data_fer"])
    if error_kind == "ber":
        set_ber_all_pairs(
            s.error_model, list(s.nodes), pick.choice([1e-5, 1e-4, 2e-4])
        )
    elif error_kind == "data_fer":
        # Includes the explicit-0.0 edge: still consumes one uniform per
        # data frame, so a stray draw desynchronizes every later roll.
        s.error_model.set_data_fer("S0", "R0", pick.choice([0.0, 0.2, 0.5]))
    for i in range(n_pairs):
        if pick.random() < 0.5:
            src, _sink = s.udp_flow(f"S{i}", f"R{i}")
        else:
            src, _sink = s.tcp_flow(f"S{i}", f"R{i}")
        src.start()
    if pick.random() < 0.3:
        from repro.faults import FaultPlan, GilbertElliottConfig, JammerConfig

        if pick.random() < 0.5:
            s.install_faults(FaultPlan(channel=GilbertElliottConfig()))
        else:
            s.install_faults(FaultPlan(jammer=JammerConfig(period_us=10_000.0)))
    return s


def _run_case(case_seed: int) -> tuple[tuple[str, ...], str]:
    """Run one case; return its trace lines and its fingerprint.

    The fingerprint digests the trace bytes, the per-sender airtime and the
    event count: two runs are interchangeable iff their fingerprints match.
    """
    scenario = _build_case(case_seed)
    tracer = FrameTracer(scenario.medium)
    scenario.run(CASE_DURATION_S)
    lines = tuple(
        json.dumps(record.to_dict(), sort_keys=True) for record in tracer.records
    )
    totals = tracer.airtime_by_sender()
    metrics = {f"airtime_{name}": value for name, value in sorted(totals.items())}
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    digest.update(json.dumps(metrics, sort_keys=True).encode())
    digest.update(str(scenario.sim.events_processed).encode())
    return lines, digest.hexdigest()[:16]


def _assert_case_repeats(case_seed: int) -> None:
    first_lines, first = _run_case(case_seed)
    assert first_lines, f"case {case_seed} produced no traffic"
    _run_case(case_seed + 1)  # a different workload in between
    second_lines, second = _run_case(case_seed)
    if first == second:
        return
    for index, (a, b) in enumerate(zip(first_lines, second_lines)):
        if a != b:
            pytest.fail(
                f"case {case_seed} diverged on re-run at trace record {index}:\n"
                f"  first:  {a}\n  second: {b}"
            )
    pytest.fail(
        f"case {case_seed} diverged on re-run: {len(first_lines)} vs "
        f"{len(second_lines)} trace records, fingerprints {first} vs {second}"
    )


ORDER_SCRIPT = """
import json, sys
from tests.test_fuzz_determinism import QUICK_CASES, _run_case
order = QUICK_CASES if sys.argv[1] == "forward" else QUICK_CASES[::-1]
print(json.dumps({case: _run_case(case)[1] for case in order}))
"""


def _fingerprints_in_fresh_process(order: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", ORDER_SCRIPT, order],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    return json.loads(result.stdout.splitlines()[-1])


# ------------------------------------------------------------ tier-1 tier --


@pytest.mark.parametrize("case_seed", QUICK_CASES)
def test_quick_fuzz_case_is_deterministic(case_seed):
    _assert_case_repeats(case_seed)


def test_quick_cases_do_not_depend_on_run_order():
    forward = _fingerprints_in_fresh_process("forward")
    backward = _fingerprints_in_fresh_process("backward")
    assert forward == backward


def check_topology_invariants(scenario: Scenario, duration_s: float) -> None:
    """Run ``scenario`` and assert invariants that hold on any topology.

    * per MAC, MSDUs accepted = acknowledged + dropped + still queued (the
      MSDU in an exchange stays at the queue's head until it completes);
    * no NAV update ever sets a negative ``nav_until``;
    * every TCP sender keeps ``snd_una <= snd_max`` after each ACK;
    * the flows' total goodput stays within the PHY data rate (every
      station of the fuzz space is within decode range of every other, so
      they share one channel).

    The checks wrap ``DcfMac`` and ``TcpSender`` methods at class level for
    the run, keyed by instance.
    """
    accepted = dict.fromkeys(scenario.macs.values(), 0)
    navs = []
    send, update_nav = DcfMac.send, DcfMac._update_nav
    receive = TcpSender.receive

    def counted_send(mac, payload, dst, size):
        ok = send(mac, payload, dst, size)
        accepted[mac] += ok
        return ok

    def recorded_nav(mac, until):
        navs.append(until)
        update_nav(mac, until)

    def checked_receive(sender, packet):
        receive(sender, packet)
        assert sender.snd_una <= sender.snd_max

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DcfMac, "send", counted_send)
        patch.setattr(DcfMac, "_update_nav", recorded_nav)
        patch.setattr(TcpSender, "receive", checked_receive)
        scenario.run(duration_s)

    agents = [a for node in scenario.nodes.values() for a in node._agents.values()]
    senders = [a for a in agents if isinstance(a, TcpSender)]
    for mac in scenario.macs.values():
        stats = mac.stats
        assert stats.crashes == 0  # the fuzz space injects no crashes
        assert accepted[mac] == stats.msdu_sent + stats.drops + mac.queue_length
        assert mac.nav_until >= 0.0
    assert all(until >= 0.0 for until in navs)
    assert any(accepted.values()) and all(s.snd_una <= s.snd_max for s in senders)
    delivered_bits = 8 * sum(
        a.bytes_received for a in agents if isinstance(a, (UdpSink, TcpReceiver))
    )
    assert delivered_bits / (duration_s * 1e6) <= scenario.phy.data_rate


@pytest.mark.parametrize("case_seed", QUICK_CASES)
def test_quick_fuzz_case_keeps_topology_invariants(case_seed):
    check_topology_invariants(_build_case(case_seed), CASE_DURATION_S)


@given(case_seed=st.integers(min_value=10, max_value=5_000))
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_hypothesis_fuzz_short_sweep(case_seed):
    _assert_case_repeats(case_seed)


# -------------------------------------------------------------- slow tier --


@pytest.mark.slow
@given(case_seed=st.integers(min_value=0, max_value=1_000_000))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_hypothesis_fuzz_full_sweep(case_seed):
    _assert_case_repeats(case_seed)
    check_topology_invariants(_build_case(case_seed), CASE_DURATION_S)
