"""Unit tests for named RNG substreams."""

import random

import pytest

from repro.mac.frames import Frame, FrameKind
from repro.phy.error import BitErrorModel
from repro.phy.medium import Medium, Radio
from repro.phy.params import dot11b
from repro.phy.propagation import rss_to_db
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def test_same_name_returns_same_stream():
    streams = RngStreams(seed=7)
    assert streams.stream("a") is streams.stream("a")


def test_different_names_are_independent():
    streams = RngStreams(seed=7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_same_seed_reproduces_sequences():
    s1 = RngStreams(seed=123)
    s2 = RngStreams(seed=123)
    assert [s1.stream("x").random() for _ in range(10)] == [
        s2.stream("x").random() for _ in range(10)
    ]


def test_different_seeds_differ():
    s1 = RngStreams(seed=1)
    s2 = RngStreams(seed=2)
    assert [s1.stream("x").random() for _ in range(5)] != [
        s2.stream("x").random() for _ in range(5)
    ]


def test_consumption_order_does_not_couple_streams():
    """Drawing from one stream must not perturb another."""
    s1 = RngStreams(seed=9)
    _ = [s1.stream("noise").random() for _ in range(100)]
    tainted = [s1.stream("signal").random() for _ in range(5)]
    s2 = RngStreams(seed=9)
    clean = [s2.stream("signal").random() for _ in range(5)]
    assert tainted == clean


def test_spawn_derives_independent_family():
    root = RngStreams(seed=5)
    child_a = root.spawn(1)
    child_b = root.spawn(2)
    same_child = RngStreams(seed=5).spawn(1)
    assert child_a.stream("x").random() != child_b.stream("x").random()
    assert RngStreams(seed=5).spawn(1).seed == same_child.seed


# ------------------------------------------------- the medium's stream --


class _Recorder:
    """A MAC stub that keeps what the radio delivers."""

    def __init__(self):
        self.received = []

    def phy_busy(self):
        pass

    def phy_idle(self):
        pass

    def phy_tx_done(self):
        pass

    def phy_receive(self, frame, corrupted, addr_ok, rssi_db):
        self.received.append((corrupted, addr_ok, rssi_db))


@pytest.mark.parametrize("jitter", [False, True])
def test_medium_rolls_draw_the_medium_stream_in_order(jitter):
    """A lossy link's corruption and address-survival rolls (and the RSSI
    jitter, when set) are drawn from the medium's stream on demand, in
    delivery order: they equal the draws of a fresh ``random.Random`` with
    the same seed, and the stream is left exactly where those draws end."""
    sim = Simulator()
    model = BitErrorModel()
    model.set_ber("r0", "r1", 1e-3)  # r0 -> r2 stays clean: no roll
    medium = Medium(
        sim,
        dot11b(),
        random.Random(11),
        error_model=model,
        rssi_jitter=(lambda rng: rng.gauss(0.0, 2.0)) if jitter else None,
    )
    radios = []
    for i, x in enumerate((0.0, 10.0, 20.0)):
        radio = Radio(medium, f"r{i}", (x, 0.0))
        radio.mac = _Recorder()
        radios.append(radio)
    frames = []
    for k in range(40):
        if k % 2:
            frame = Frame(FrameKind.ACK, "r0", "r1", 0.0, 14)
        else:
            frame = Frame(FrameKind.DATA, "r0", "r1", 314.0, 1052, seq=k)
        frames.append(frame)
        sim.call_at(2000.0 * k, radios[0].transmit, frame, 957.0)
    sim.run()

    reference = random.Random(11)
    p_dst, p_src = medium.addr_dst_survival, medium.addr_src_survival
    expected = {"r1": [], "r2": []}
    for frame in frames:
        for name, x in (("r1", 10.0), ("r2", 20.0)):  # r1 ends first
            is_data = frame.kind is FrameKind.DATA
            p = model.corruption_plan("r0", name, frame.size_bytes, is_data)
            corrupted = p is not None and reference.random() < p
            addr_ok = True
            if corrupted:
                addr_ok = reference.random() < p_dst and reference.random() < p_src
            rssi_db = rss_to_db(medium.pathloss.rss(1.0, x))
            if jitter:
                rssi_db += reference.gauss(0.0, 2.0)
            expected[name].append((corrupted, addr_ok, rssi_db))
    assert radios[1].mac.received == expected["r1"]
    assert radios[2].mac.received == expected["r2"]
    assert medium.rng.getstate() == reference.getstate()
    outcomes = {(c, a) for c, a, _ in expected["r1"]}
    assert (True, True) in outcomes and (False, True) in outcomes
