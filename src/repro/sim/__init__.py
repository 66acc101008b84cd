"""Discrete-event simulation substrate.

The engine is a classic event-heap scheduler with a microsecond float clock,
cancellable events, and deterministic tie-breaking (events scheduled earlier
fire earlier at equal timestamps).  Randomness is drawn from named substreams
derived from a single root seed so experiments are reproducible and individual
subsystems can be re-seeded independently.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams

__all__ = ["Event", "RngStreams", "Simulator"]
