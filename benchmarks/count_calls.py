"""Count the Python calls the simulator makes per transmitted frame.

    PYTHONPATH=src python benchmarks/count_calls.py [perf-scenario ...]

Builds the five pairwise ``paper_hotspots`` topologies of ``perfbench/`` (or
the named perf scenarios) at seeds 1 and 2, then runs each for 1 simulated
second under :mod:`cProfile`; building is not profiled.  Prints one JSON
line:

* ``transmits`` — frames put on the air (``Medium.frames_sent``), summed;
* ``events`` — ``Simulator.events_processed``, summed;
* ``event_allocations`` — cancellable handles allocated
  (``Event.__init__`` calls), summed;
* ``heap_pushes_per_tx`` — ``heapq.heappush`` calls per transmit: heap
  entries made, where a group of equal-delay hearers counts once each way;
* ``python_calls_per_tx`` — calls of Python-level functions per transmit;
* ``all_calls_per_tx`` — the same, counting built-in functions too.

Every number is an exact count that repeats from run to run, so a change
that only removes calls shows up without timing noise, and ``events`` and
``transmits`` show that the simulation itself did not move.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys

from repro.perf.scenarios import get_scenario
from repro.sim.engine import Event

#: The pairwise part of perfbench's ``paper_hotspots`` workload.
TOPOLOGIES = ("fig1_nav_udp", "fig8_nav_tcp", "spoof_tcp", "grc_nav", "grc_spoof")

#: How cProfile names the C ``heapq.heappush`` every scheduled entry goes
#: through.
HEAPPUSH = "<built-in method _heapq.heappush>"


def count_calls(topologies: list[str], seeds: list[int], duration_s: float) -> dict:
    """Profile every (topology, seed) run and total the counts."""
    transmits = events = python_calls = all_calls = event_allocations = 0
    heap_pushes = 0
    init = Event.__init__.__code__
    event_init = (init.co_filename, init.co_firstlineno, init.co_name)
    for name in topologies:
        spec = get_scenario(name)
        for seed in seeds:
            scenario = spec.build(seed).scenario
            profile = cProfile.Profile()
            profile.runcall(scenario.run, duration_s)
            for function, row in pstats.Stats(profile).stats.items():
                calls = row[1]  # every call, recursive ones included
                all_calls += calls
                if function[0] != "~":  # "~" marks a built-in function
                    python_calls += calls
                if function == event_init:
                    event_allocations += calls
                elif function[2] == HEAPPUSH:
                    heap_pushes += calls
            transmits += scenario.medium.frames_sent
            events += scenario.sim.events_processed
    return {
        "topologies": list(topologies),
        "seeds": seeds,
        "duration_s": duration_s,
        "transmits": transmits,
        "events": events,
        "event_allocations": event_allocations,
        "heap_pushes_per_tx": round(heap_pushes / transmits, 1),
        "python_calls_per_tx": round(python_calls / transmits, 1),
        "all_calls_per_tx": round(all_calls / transmits, 1),
    }


def main(argv: list[str] | None = None) -> int:
    topologies = sys.argv[1:] if argv is None else argv
    result = count_calls(topologies or list(TOPOLOGIES), [1, 2], 1.0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
