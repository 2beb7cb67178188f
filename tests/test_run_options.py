"""Tests for :class:`repro.sim.options.RunOptions`, the grid's run options.

Every option a grid entry point or campaign spec accepts must reach
every cell the grid hands to :class:`ParallelRunner`; a bad option must
fail before any cell runs; and the cache-key rule is the one DESIGN.md
§9 states.
"""

import inspect
import json
import re
from dataclasses import fields, replace

import pytest

from repro.common.errors import CampaignSpecError, ConfigError
from repro.resilience.harness import RetryPolicy, guarded_run
from repro.sim.campaign import load_campaign_spec, run_campaign
from repro.sim.config import ExperimentScale, MachineConfig, make_scheme
from repro.sim.options import RunOptions
from repro.sim.parallel import ParallelRunner
from repro.sim.runner import associativity_sweep, run_benchmarks, run_matrix
from repro.sim.simulator import run_trace
from repro.timing.latency import LatencyModel
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=2_000)
SCHEMES = ["lru", "stem"]
OPTION_NAMES = [option.name for option in fields(RunOptions)]

#: A value other than the default for every option.
NON_DEFAULT = {
    "warmup_fraction": 0.5,
    "machine": MachineConfig(latency=LatencyModel(memory_cycles=200)),
    "metrics_window": 4096,
    "ledger": True,
    "backend": "python",
    "fault_plan": "sc_s:2",
    "retry": RetryPolicy(max_attempts=2),
    "watchdog_seconds": 600.0,
}

#: Options a grid takes from its scale rather than as keywords.
FROM_SCALE = {"warmup_fraction", "machine"}

#: How a campaign spec sets NON_DEFAULT for each option it can set.
SPEC_SETTINGS = {
    "warmup_fraction": {"warmup_fraction": 0.5},
    "metrics_window": {"metrics_window": 4096},
    "ledger": {"ledger": True},
    "backend": {"backend": "python"},
    "fault_plan": {"fault_plans": ["sc_s:2"]},
    "retry": {"retry": {"max_attempts": 2}},
    "watchdog_seconds": {"watchdog_seconds": 600},
}

SPEC = {
    "name": "options",
    "schemes": SCHEMES,
    "benchmarks": ["vpr", "mcf"],
    "geometries": [{"sets": 64, "assoc": 16}],
    "trace_length": 2_000,
}

#: The three bad values that once slipped through to every cell.
BAD_OPTIONS = [
    pytest.param({"metrics_window": 0}, id="metrics_window"),
    pytest.param({"watchdog_seconds": -1}, id="watchdog_seconds"),
    pytest.param(
        {"backend": "cuda", "retry": RetryPolicy(max_attempts=2)},
        id="backend",
    ),
]


@pytest.fixture(scope="module")
def trace():
    return make_benchmark_trace("vpr", num_sets=64, length=2_000)


def capture_cells(monkeypatch):
    """Record the cells the runner is handed instead of running them."""
    cells = []

    def capture(runner, specs):
        cells.extend(specs)
        return []

    monkeypatch.setattr(ParallelRunner, "run", capture)
    return cells


def write_spec(tmp_path, document):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


GRIDS = {
    "run_matrix": lambda trace, scale, **options: run_matrix(
        [trace], SCHEMES, scale=scale, **options
    ),
    "run_benchmarks": lambda trace, scale, **options: run_benchmarks(
        SCHEMES, benchmarks=["vpr", "mcf"], scale=scale, **options
    ),
    "associativity_sweep": lambda trace, scale, **options: (
        associativity_sweep(trace, SCHEMES, [4, 8], scale=scale, **options)
    ),
}


def test_every_option_has_a_non_default_value():
    defaults = RunOptions()
    assert sorted(NON_DEFAULT) == sorted(OPTION_NAMES)
    for name, value in NON_DEFAULT.items():
        assert getattr(defaults, name) != value, name


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", OPTION_NAMES)
def test_every_option_reaches_every_grid_cell(monkeypatch, trace, grid, name):
    cells = capture_cells(monkeypatch)
    value = NON_DEFAULT[name]
    if name in FROM_SCALE:
        GRIDS[grid](trace, replace(SCALE, **{name: value}))
    else:
        GRIDS[grid](trace, SCALE, **{name: value})
    assert len(cells) >= len(SCHEMES)
    assert all(getattr(cell.options, name) == value for cell in cells)


@pytest.mark.parametrize(
    "name", [name for name in OPTION_NAMES if name in SPEC_SETTINGS]
)
def test_every_spec_option_reaches_every_campaign_cell(
    monkeypatch, tmp_path, name
):
    cells = capture_cells(monkeypatch)
    path = write_spec(tmp_path, {**SPEC, **SPEC_SETTINGS[name]})
    run_campaign(path, directory=tmp_path / "campaign")
    assert len(cells) == 4
    assert all(getattr(cell.options, name) == NON_DEFAULT[name]
               for cell in cells)


@pytest.mark.parametrize("options", BAD_OPTIONS)
def test_bad_option_fails_before_any_cell(monkeypatch, trace, options):
    cells = capture_cells(monkeypatch)
    with pytest.raises(ConfigError):
        run_matrix([trace], ["stem"], scale=SCALE, seed=5, **options)
    assert cells == []
    with pytest.raises(ConfigError):
        guarded_run(
            lambda seed: make_scheme("stem", SCALE.geometry(), seed=seed),
            trace, scheme="stem", base_seed=5,
            options=RunOptions(**options),
        )


@pytest.mark.parametrize("key, value", [
    ("warmup_fraction", 1.5),
    ("metrics_window", 0),
    ("watchdog_seconds", -1),
    ("backend", "cuda"),
    ("ledger", "yes"),
])
def test_spec_errors_name_file_and_key(tmp_path, key, value):
    path = write_spec(tmp_path, {**SPEC, key: value})
    with pytest.raises(
        CampaignSpecError, match=re.escape(f"{path}: {key}: ")
    ):
        load_campaign_spec(path)


def test_cache_key_fields_follow_the_rule():
    default = RunOptions().cache_key_fields()
    assert sorted(default) == ["machine", "metrics_window", "warmup_fraction"]
    for name in ("backend", "retry", "watchdog_seconds"):
        options = RunOptions(**{name: NON_DEFAULT[name]})
        assert options.cache_key_fields() == default, name
    for name in ("fault_plan", "ledger"):
        options = RunOptions(**{name: NON_DEFAULT[name]})
        assert options.cache_key_fields() == {
            **default, name: NON_DEFAULT[name],
        }, name


def test_run_trace_kwargs_are_run_trace_keywords():
    kwargs = RunOptions(watchdog_seconds=5.0).run_trace_kwargs()
    assert set(kwargs) <= set(inspect.signature(run_trace).parameters)
    assert kwargs["deadline_seconds"] == 5.0
    assert "fault_plan" not in kwargs and "retry" not in kwargs
