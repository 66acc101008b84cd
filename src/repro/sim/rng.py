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


class BatchedUniform:
    """Amortized uniform draws from one :class:`random.Random` stream.

    The hot simulation loops (frame corruption rolls, address-survival rolls)
    consume uniforms one at a time; this wrapper refills an internal buffer
    of ``batch`` draws at once and hands them out in order.  Because the
    buffer is filled *from the same underlying stream, in the same order*
    the values any consumer observes are bit-identical to calling
    ``rng.random()`` directly — provided the wrapper is the stream's only
    consumer (``tests/test_rng.py`` pins this equivalence down).

    With ``batch=1`` the wrapper degenerates to draw-on-demand: each call
    pulls exactly one value at call time, preserving interleaving with other
    consumers of the same stream (used when an RSSI-jitter callable shares
    the medium's stream).
    """

    __slots__ = ("batch", "_draw", "_buf", "_idx")

    def __init__(self, rng: random.Random, batch: int = 256) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self._draw = rng.random
        self._buf: list[float] = []
        self._idx = 0

    def random(self) -> float:
        """Next uniform in [0, 1) from the wrapped stream."""
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            draw = self._draw
            self._buf = buf = [draw() for _ in range(self.batch)]
            idx = 0
        self._idx = idx + 1
        return buf[idx]
