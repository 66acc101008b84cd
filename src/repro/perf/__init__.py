"""Core microbenchmark harness and golden-equivalence capture.

``repro perf`` (CLI) and BENCH_core.json live here; see
:mod:`repro.perf.harness` for the schema and :mod:`repro.perf.golden` for
the bit-exactness methodology.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".harness": (
        "REGRESSION_FACTOR", "SCHEMA", "check_regression", "load_bench",
        "run_benchmark", "time_scenario", "validate_bench", "write_bench",
    ),
    ".scenarios": ("SCENARIOS", "PerfScenario", "get_scenario", "scenario_names"),
})
