"""Result collection, tracing, and presentation helpers."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".summary": ("ExperimentResult", "format_table", "median", "median_over_seeds"),
    ".trace": (
        "FrameTracer", "GoodputSeries", "TraceRecord", "attach_goodput_series",
        "sparkline",
    ),
})
