"""The simulation's per-station objects keep a fixed, small layout.

CPython 3.11 keeps ``self.x`` on its specialised path only while an
instance's class holds fewer than 30 dict attributes; from 30 on, every
attribute load of every instance takes the generic path (DESIGN.md §9,
"Fixed-layout station state, measured").  The hot classes declare
``__slots__`` and no ``__dict__``: code that wraps one of their methods
wraps it on the class.

Each case runs one registered perf scenario briefly and walks every
``repro`` object it can reach from the scenario: the simulator, medium,
radios, MACs, nodes, policies, agents and detectors.
"""

from __future__ import annotations

from collections import deque
from types import MethodType

import pytest

from repro.mac.dcf import DcfMac
from repro.perf.scenarios import get_scenario, scenario_names
from repro.phy.medium import Radio, SinrRadio
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpSender

RUN_S = 0.02
#: The first instance-dict size CPython 3.11 no longer specialises.
DICT_CLIFF = 30

#: The slotted hot classes, and whether each keeps a ``__dict__``.
SLOTTED = {
    DcfMac: False,
    TcpSender: False,
    Radio: False,
    SinrRadio: False,
}


def instance_fields(obj):
    """``(name, value)`` of each instance attribute, in slots or in the dict."""
    for cls in type(obj).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                yield name, getattr(obj, name)
    yield from getattr(obj, "__dict__", {}).items()


def _reachable_repro_objects(root):
    """Every instance of a ``repro`` class reachable from ``root``.

    Follows containers, bound methods (the heap's and the medium's
    callbacks), instance dicts and slots; stops at classes, modules and
    plain functions.
    """
    seen = {id(root)}
    todo = [root]
    found = []
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            children = list(obj)
        elif isinstance(obj, dict):
            children = [*obj.keys(), *obj.values()]
        elif isinstance(obj, MethodType):
            children = [obj.__self__]
        elif type(obj).__module__.startswith("repro.") and not isinstance(obj, type):
            found.append(obj)
            children = [value for _, value in instance_fields(obj)]
        else:
            continue
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return found


def test_hot_classes_declare_their_slots():
    for cls, has_dict in SLOTTED.items():
        assert "__slots__" in cls.__dict__, cls.__name__
        assert (cls.__dictoffset__ != 0) is has_dict, cls.__name__


@pytest.mark.parametrize("name", scenario_names())
def test_reachable_objects_stay_off_the_dict_cliff(name):
    built = get_scenario(name).build(3)
    built.scenario.run(RUN_S)
    objects = _reachable_repro_objects(built.scenario)
    kinds = {type(obj) for obj in objects}
    assert {DcfMac, Simulator} <= kinds and kinds & {Radio, SinrRadio}
    filled, crowded = [], []
    for obj in objects:
        cls = type(obj)
        attrs = getattr(obj, "__dict__", None)
        if attrs is None:
            continue
        if any("__slots__" in k.__dict__ for k in cls.__mro__[:-1]) and attrs:
            filled.append(f"{cls.__qualname__}: {sorted(attrs)}")
        if len(attrs) >= DICT_CLIFF:
            crowded.append(f"{cls.__qualname__}: {len(attrs)} dict attributes")
    assert not filled, "slotted objects with a filled __dict__: " + "; ".join(filled)
    assert not crowded, "objects past the dict cliff: " + "; ".join(sorted(set(crowded)))
