"""The package runs with numpy unimportable: it has no runtime dependencies.

``pyproject.toml`` declares ``dependencies = []``.  This test holds the claim
down end to end: a fresh interpreter with ``sys.modules["numpy"] = None``
(every ``import numpy`` raises ImportError) times a pairwise and a SINR perf
scenario through the CLI and runs one experiment in quick mode.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.modules["numpy"] = None

from repro.cli import main
from repro.experiments import fig1_nav_udp
from repro.experiments.common import RunSettings

code = main(["perf", "dense_hotspot_sinr", "fig1_nav_udp", "--duration", "0.02"])
if code != 0:
    sys.exit(code)
result = fig1_nav_udp.run(RunSettings.quick())
assert result.rows, "fig1 produced no rows"
"""


def test_cli_and_experiment_run_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
