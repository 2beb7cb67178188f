"""The import layer graph (DESIGN.md §5), pinned in fresh interpreters.

Imports point down the layers only.  Each check starts a new
interpreter, imports one entry point and reads ``sys.modules``:

* ``import repro`` loads only :mod:`repro._version`; the quickstart
  names resolve on first use.
* The core — the schemes and what they stand on — loads only the
  core.
* :mod:`repro.sim.simulator` loads neither the pool, the campaign nor
  the reporting layers.
* :mod:`repro.sim.parallel` loads no view of a grid's results: neither
  the fleet status nor the profile.
* ``python -m repro --version`` and ``repro index query`` load no
  simulator, and ``--version`` no ``sqlite3``.
* ``repro campaign status`` loads the journal, not the campaign runner.

A package ``__init__`` holds only its docstring, so each name has one
import path: the module that defines it.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The core packages; with obs's event types and tracer they form the
#: core, which imports nothing above itself.
CORE_PACKAGES = (
    "common", "cache", "policies", "spatial", "core", "timing", "workloads"
)
CORE = sorted(
    [f"repro.{package}" for package in CORE_PACKAGES]
    + [
        f"repro.{package}.{info.name}"
        for package in CORE_PACKAGES
        for info in pkgutil.iter_modules([str(SRC / "repro" / package)])
    ]
    + ["repro.obs.events", "repro.obs.tracer"]
)

#: Standard-library modules only the pool, the index and the server use.
HEAVY_STDLIB = ("sqlite3", "http.server", "multiprocessing")


def _loaded(script: str) -> list:
    """``sys.modules`` of a fresh interpreter after running ``script``."""
    script = textwrap.dedent(script) + (
        "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _within(loaded: list, prefixes) -> list:
    return [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def _cli(*argv: str) -> list:
    """Modules loaded by ``python -m repro ARGV...``."""
    return _loaded(f"""
        import runpy, sys
        sys.argv = ["repro", *{list(argv)!r}]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert not exit.code, exit.code
    """)


def test_package_inits_hold_only_a_docstring():
    for init in sorted((SRC / "repro").glob("*/__init__.py")):
        body = ast.parse(init.read_text(encoding="utf-8")).body
        assert [type(node) for node in body] == [ast.Expr], init


def test_import_repro_loads_only_the_version():
    assert _within(_loaded("import repro"), ["repro"]) == [
        "repro", "repro._version"
    ]


def test_the_core_loads_only_the_core():
    # Importing every core module in one interpreter loads the union of
    # their import closures, so one run checks all of them.
    assert "repro.core.stem_cache" in CORE
    loaded = _loaded(
        "import importlib\n"
        f"for name in {CORE!r}:\n"
        "    importlib.import_module(name)\n"
    )
    allowed = set(CORE) | {"repro", "repro._version", "repro.obs"}
    assert [m for m in _within(loaded, ["repro"]) if m not in allowed] == []
    assert _within(loaded, HEAVY_STDLIB) == []


def test_the_simulator_loads_no_pool_campaign_or_report():
    loaded = _loaded("import repro.sim.simulator")
    assert _within(loaded, [
        "repro.sim.parallel", "repro.sim.campaign", "repro.sim.runner",
        "repro.experiments",
        "repro.obs.index", "repro.obs.server", "repro.obs.htmlreport",
        "repro.obs.fleet", "repro.obs.telemetry",
    ]) == []
    assert _within(loaded, HEAVY_STDLIB) == []


def test_the_grid_runner_loads_no_view():
    loaded = _loaded("import repro.sim.parallel")
    assert _within(loaded, ["repro.obs.fleet", "repro.obs.profile"]) == []


@pytest.mark.parametrize("argv, also_unloaded", [
    (("--version",), ["sqlite3"]),
    (("index", "query", "--db", ":memory:"), []),
], ids=["version", "index-query"])
def test_cli_commands_load_no_simulator(argv, also_unloaded):
    loaded = _cli(*argv)
    assert _within(loaded, [
        "repro.sim", "repro.analysis", "repro.experiments",
        "http.server", "multiprocessing", *also_unloaded,
    ]) == []


def test_campaign_status_loads_only_the_journal(tmp_path):
    (tmp_path / "campaign.jsonl").write_text(json.dumps({
        "kind": "campaign_start", "format": 1, "name": "c",
        "spec_digest": "0" * 64, "total_cells": 1,
    }) + "\n", encoding="utf-8")
    loaded = _cli("campaign", "status", str(tmp_path))
    assert "repro.sim.journal" in loaded
    assert _within(loaded, [
        "repro.sim.parallel", "repro.sim.config", "repro.sim.simulator",
        "multiprocessing", "sqlite3",
    ]) == []
