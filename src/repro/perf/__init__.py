"""Core microbenchmark harness and golden-equivalence capture.

``repro perf`` (CLI) and BENCH_core.json live here; see
:mod:`repro.perf.harness` for the schema and :mod:`repro.perf.golden` for
the bit-exactness methodology.
"""

from repro.perf.harness import (
    REGRESSION_FACTOR,
    SCHEMA,
    check_regression,
    load_bench,
    run_benchmark,
    time_scenario,
    validate_bench,
    write_bench,
)
from repro.perf.scenarios import (
    SCENARIOS,
    PerfScenario,
    get_scenario,
    scenario_names,
)

__all__ = [
    "REGRESSION_FACTOR",
    "SCENARIOS",
    "SCHEMA",
    "PerfScenario",
    "check_regression",
    "get_scenario",
    "load_bench",
    "run_benchmark",
    "scenario_names",
    "time_scenario",
    "validate_bench",
    "write_bench",
]
