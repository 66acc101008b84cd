"""Named, reproducible random-number substreams.

Every stochastic subsystem draws from its own :class:`random.Random` stream
derived from a root seed and a stream name.  This keeps experiments
reproducible and makes results insensitive to the order in which unrelated
subsystems consume randomness.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """Factory of named :class:`random.Random` substreams.

    >>> streams = RngStreams(seed=7)
    >>> a = streams.stream("mac.backoff.node1")
    >>> b = streams.stream("mac.backoff.node2")
    >>> a is streams.stream("mac.backoff.node1")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) substream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def spawn(self, salt: int) -> "RngStreams":
        """Derive an independent stream family (e.g. one per repetition)."""
        digest = hashlib.sha256(f"{self.seed}/spawn/{salt}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))
