"""Discrete-event simulation substrate.

The engine is a classic event-heap scheduler with a microsecond float clock,
cancellable events, and deterministic tie-breaking (events scheduled earlier
fire earlier at equal timestamps).  Randomness is drawn from named substreams
derived from a single root seed so experiments are reproducible and individual
subsystems can be re-seeded independently.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".engine": ("Event", "Simulator"),
    ".rng": ("RngStreams",),
})
