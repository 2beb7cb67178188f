"""Tests for the policy registry and top-level package surface."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigError
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import (
    available_policies,
    make_policy,
    register_policy,
)


class TestPolicyRegistry:
    def test_all_paper_policies_registered(self):
        names = available_policies()
        for policy in ("lru", "lip", "bip", "dip", "pelifo", "srrip",
                       "drrip", "fifo", "random", "nru"):
            assert policy in names

    def test_make_policy_case_insensitive(self):
        assert make_policy("LRU").name == "LRU"
        assert make_policy("PeLiFo").name == "PeLIFO"

    def test_fresh_instances_every_call(self):
        assert make_policy("lru") is not make_policy("lru")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            make_policy("mru")

    def test_register_custom_policy(self):
        class AlwaysWayZero(ReplacementPolicy):
            name = "WayZero"

            def on_hit(self, set_index, way):
                return None

            def victim(self, set_index):
                return 0

            def on_fill(self, set_index, way):
                return None

        register_policy("wayzero-test", AlwaysWayZero)
        try:
            assert make_policy("wayzero-test").name == "WayZero"
            with pytest.raises(ConfigError, match="already registered"):
                register_policy("wayzero-test", AlwaysWayZero)
        finally:
            from repro.policies import registry
            registry._FACTORIES.pop("wayzero-test", None)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_pyproject_reads_the_package_version(self):
        # One source of truth: packaging metadata must not pin its own
        # copy of the version, which then drifts from the package's.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(repro.__file__).resolve().parents[2] / (
            "pyproject.toml"
        )
        if not pyproject.is_file():
            pytest.skip("not running from a source checkout")
        document = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in document["project"]
        assert "version" in document["project"]["dynamic"]
        dynamic = document["tool"]["setuptools"]["dynamic"]
        module_name, _, name = dynamic["version"]["attr"].rpartition(".")
        module = importlib.import_module(module_name)
        assert getattr(module, name) == repro.__version__

    def test_imports_no_numpy(self):
        # ``dependencies = []`` must hold wherever numpy happens to be
        # installed: neither importing the package nor running a cell
        # may pull it in.
        script = textwrap.dedent("""
            import sys
            import repro, repro.cli, repro.sim.campaign
            from repro.sim.config import make_scheme
            geometry = repro.CacheGeometry(num_sets=32, associativity=4)
            trace = repro.make_benchmark_trace("vpr", num_sets=32,
                                               length=4000)
            repro.run_trace(make_scheme("lru", geometry), trace)
            assert "numpy" not in sys.modules, "repro imported numpy"
        """)
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_public_names_resolve_from_their_defining_module(self):
        # The lazy table must name where each object is defined, never
        # a module that merely imports it.
        for name, home in repro._HOMES.items():
            value = getattr(repro, name)
            assert value is getattr(importlib.import_module(home), name)
            assert getattr(value, "__module__", home) == home, name
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_quickstart_snippet_works(self):
        geometry = repro.CacheGeometry(num_sets=32, associativity=4)
        cache = repro.StemCache(geometry)
        trace = repro.make_benchmark_trace("vpr", num_sets=32, length=4000)
        result = repro.run_trace(cache, trace)
        assert result.mpki >= 0
