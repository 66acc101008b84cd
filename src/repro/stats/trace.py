"""Per-frame tracing and time-series telemetry.

:class:`FrameTracer` records every frame put on the air (like an ns-2 trace
file) without touching MAC internals — it wraps ``Medium.transmit``.  Traces
are what you reach for when a scenario behaves unexpectedly: who transmitted
when, at what rate, with what NAV.

:func:`attach_goodput_series` wraps a sink's ``receive`` to build a windowed
goodput time series, and :func:`sparkline` renders one inline — handy for
eyeballing when a greedy receiver takes the channel over.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.sim.engine import Simulator

US_PER_S = 1_000_000.0


@dataclass(frozen=True)
class TraceRecord:
    """One transmitted frame."""

    time_us: float
    sender: str  # radio that actually transmitted (spoofers show up here)
    kind: str
    src: str  # claimed source address in the frame
    dst: str
    nav_us: float
    size_bytes: int
    rate_mbps: float | None
    airtime_us: float

    @classmethod
    def of_transmit(
        cls, time_us: float, sender: Any, frame: Any, duration: float
    ) -> "TraceRecord":
        """The record of ``sender`` putting ``frame`` on the air for ``duration``."""
        return cls(
            time_us=time_us,
            sender=sender.name,
            kind=frame.kind.value,
            src=frame.src,
            dst=frame.dst,
            nav_us=frame.duration,
            size_bytes=frame.size_bytes,
            rate_mbps=getattr(frame, "rate", None),
            airtime_us=duration,
        )

    def to_dict(self) -> dict[str, Any]:
        """Field dict, JSON-ready (what :meth:`FrameTracer.to_jsonl` writes)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict` — rebuilds a record from one JSONL row.

        Round-trip is exact: ``TraceRecord.from_dict(r.to_dict()) == r`` for
        every record, which is what lets the committed golden traces replay
        through the streaming detection pipeline byte-for-byte.
        """
        return cls(
            time_us=data["time_us"],
            sender=data["sender"],
            kind=data["kind"],
            src=data["src"],
            dst=data["dst"],
            nav_us=data["nav_us"],
            size_bytes=data["size_bytes"],
            rate_mbps=data["rate_mbps"],
            airtime_us=data["airtime_us"],
        )

    def to_line(self) -> str:
        """One-line ns-2-style rendering of this record."""
        rate = f"{self.rate_mbps:g}M" if self.rate_mbps is not None else "-"
        return (
            f"{self.time_us / US_PER_S:.6f} {self.sender:>8} {self.kind:<4} "
            f"{self.src}->{self.dst} nav={self.nav_us:.0f} "
            f"len={self.size_bytes} rate={rate} air={self.airtime_us:.0f}"
        )


class FrameTracer:
    """Records every transmission on a medium.

    >>> tracer = FrameTracer(scenario.medium)            # doctest: +SKIP
    >>> scenario.run(1.0)                                # doctest: +SKIP
    >>> suspicious = tracer.filter(kind="CTS", min_nav=5000)  # doctest: +SKIP
    """

    def __init__(self, medium: Any, max_records: int = 1_000_000) -> None:
        self.records: list[TraceRecord] = []
        self.max_records = max_records
        self.dropped = 0
        self._medium = medium
        self._original_transmit = medium.transmit
        medium.transmit = self._traced_transmit

    def _traced_transmit(self, sender: Any, frame: Any, duration: float) -> None:
        if len(self.records) < self.max_records:
            self.records.append(
                TraceRecord.of_transmit(self._medium.sim.now, sender, frame, duration)
            )
        else:
            self.dropped += 1
        self._original_transmit(sender, frame, duration)

    def detach(self) -> None:
        """Stop tracing and restore the medium's transmit method."""
        self._medium.transmit = self._original_transmit

    # ---------------------------------------------------------- queries -----

    def filter(
        self,
        kind: str | None = None,
        sender: str | None = None,
        dst: str | None = None,
        min_nav: float | None = None,
        since_us: float | None = None,
    ) -> list[TraceRecord]:
        """Records matching every given criterion."""
        out = []
        for r in self.records:
            if kind is not None and r.kind != kind:
                continue
            if sender is not None and r.sender != sender:
                continue
            if dst is not None and r.dst != dst:
                continue
            if min_nav is not None and r.nav_us < min_nav:
                continue
            if since_us is not None and r.time_us < since_us:
                continue
            out.append(r)
        return out

    def airtime_by_sender(self) -> dict[str, float]:
        """Total microseconds of airtime each radio consumed."""
        totals: dict[str, float] = {}
        for r in self.records:
            totals[r.sender] = totals.get(r.sender, 0.0) + r.airtime_us
        return totals

    def to_text(self, limit: int | None = None) -> str:
        """Render the (optionally truncated) trace as text lines."""
        rows = self.records if limit is None else self.records[:limit]
        return "\n".join(r.to_line() for r in rows)

    def to_jsonl(self, path: str | Path, limit: int | None = None) -> int:
        """Write the trace as JSON Lines (one record per line); returns the
        record count written.  This is the persistence format campaign runs
        use for offline inspection — each line is self-describing, so traces
        from different points can be concatenated and grepped/loaded with any
        JSONL tooling."""
        rows = self.records if limit is None else self.records[:limit]
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in rows:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(rows)


def load_trace_jsonl(path: str | Path) -> list[TraceRecord]:
    """Load a JSONL trace written by :meth:`FrameTracer.to_jsonl`.

    This is how the committed ``tests/golden/*.jsonl`` traces re-enter the
    analysis layer: detection diffing replays them through the offline and
    streaming detectors without re-running the simulations that produced
    them.  Blank lines are skipped so concatenated trace files load too.
    """
    records = []
    with open(Path(path)) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_dict(json.loads(line)))
    return records


class GoodputSeries:
    """Windowed goodput counter: bytes per fixed window, as Mbps samples."""

    def __init__(self, sim: Simulator, window_us: float = 100_000.0) -> None:
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window_us = window_us
        self._buckets: dict[int, int] = {}

    def record(self, nbytes: int) -> None:
        """Add ``nbytes`` of goodput to the current window."""
        bucket = int(self.sim.now // self.window_us)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + nbytes

    def series(self, until_us: float | None = None) -> list[tuple[float, float]]:
        """Return (window start seconds, Mbps) samples, gaps filled with 0."""
        if not self._buckets:
            return []
        end = until_us if until_us is not None else self.sim.now
        last_bucket = int(end // self.window_us)
        out = []
        for bucket in range(0, last_bucket + 1):
            nbytes = self._buckets.get(bucket, 0)
            mbps = nbytes * 8 / self.window_us
            out.append((bucket * self.window_us / US_PER_S, mbps))
        return out


def attach_goodput_series(
    sim: Simulator, sink: Any, window_us: float = 100_000.0
) -> GoodputSeries:
    """Wrap ``sink.receive`` to feed a :class:`GoodputSeries`."""
    series = GoodputSeries(sim, window_us)
    original = sink.receive

    def wrapped(packet: Any) -> None:
        before = getattr(sink, "bytes_received", 0)
        original(packet)
        after = getattr(sink, "bytes_received", 0)
        if after > before:  # only goodput (new, non-duplicate) bytes count
            series.record(after - before)

    sink.receive = wrapped
    return series


_SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Iterable[float], width: int = 60) -> str:
    """Render a sequence of non-negative samples as a one-line ASCII chart."""
    samples = list(values)
    if not samples:
        return ""
    if len(samples) > width:  # downsample by averaging runs
        chunk = len(samples) / width
        samples = [
            sum(samples[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
            / max(1, len(samples[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)]))
            for i in range(width)
        ]
    top = max(samples)
    if top <= 0:
        return _SPARK_CHARS[0] * len(samples)
    scale = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[round(v / top * scale)] for v in samples)
