"""A process loads only what it runs.

Every package ``__init__`` is a lazy export table (``repro._lazy``): it names
each export under its defining module and imports nothing, so ``import
repro`` loads no simulation code, and the process pool (``multiprocessing``)
and the TOML parser load only where they are used.  The load checks run in
a fresh interpreter, since this test process has loaded everything already.

With lazy tables a stale export no longer fails at import time, only when
it is read; ``test_every_export_resolves`` reads them all.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: Standard-library subsystems that no command's start-up needs.
HEAVY = ("asyncio", "http.client", "concurrent.futures.process", "multiprocessing")


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


def run_cli(*argv: str) -> str:
    """Code that runs ``python -m repro <argv>`` and swallows its exit."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "sys.stdout.flush()\n"
    )


def test_import_repro_loads_no_submodule():
    loaded = loaded_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._lazy"]


@pytest.mark.parametrize(
    "code",
    [
        "import repro.cli",
        run_cli("--help"),
        run_cli("fleet", "worker", "--help"),
    ],
    ids=["import-cli", "help", "fleet-worker-help"],
)
def test_cli_start_loads_no_heavy_stdlib(code):
    loaded = loaded_after(code)
    assert [m for m in HEAVY if m in loaded] == []


def test_campaign_runner_loads_no_pool_and_no_toml_parser():
    loaded = loaded_after("import repro.campaign.runner")
    assert "concurrent.futures.process" not in loaded
    assert "tomllib" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    names = getattr(module, "__all__", ())
    listed = dir(module)
    for name in names:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(names) <= set(namespace)
    assert not hasattr(module, "no_such_export")


def test_quickstart_doctest_runs_through_the_lazy_namespace():
    loaded = loaded_after(
        "import doctest, repro\n"
        "failed, attempted = doctest.testmod(repro)\n"
        "assert attempted >= 8 and failed == 0, (failed, attempted)\n"
    )
    assert "repro.net.scenario" in loaded
