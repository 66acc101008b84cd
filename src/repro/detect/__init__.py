"""repro.detect — the streaming-detection equivalence gate.

:mod:`repro.detect.diff` holds the differential harness that licenses the
streaming pipeline (:mod:`repro.core.detection.streaming`): event-identity
with the offline analyzers on every golden trace, live scenario and fuzzed
workload, chunked replay through snapshot/restore, and the bounded-memory
high-water assertion.  ``repro detect diff`` is the CLI entry point;
DESIGN.md §14 documents the contract.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".diff": (
        "DetectDiffReport", "DetectRun", "canonical_event_lines", "diff_detection",
        "diff_fuzz_case", "diff_golden_trace", "diff_scenario_live",
        "diff_trace_records", "run_offline", "run_streaming", "run_streaming_chunked",
    ),
})
