"""Run-cache keys and campaign digests, pinned byte for byte.

A cell's run-cache key and a campaign's spec digest are the contract
that lets existing run caches and journals keep resuming, so a change
to how run options are carried or validated must leave every one of
them unchanged.  The values below were recorded while each option was
still threaded through the grid by hand.  Cells are captured where the
grid hands them to :class:`~repro.sim.parallel.ParallelRunner`, so the
pins hold for whatever shape a cell has; the package version is fixed
so a release does not move them.
"""

import json
from dataclasses import replace

import pytest

import repro.obs.manifest as manifest_module
from repro.resilience.harness import RetryPolicy
from repro.sim.campaign import build_cells, load_campaign_spec
from repro.sim.config import ExperimentScale, MachineConfig
from repro.sim.parallel import ParallelRunner, cell_cache_key
from repro.sim.runner import run_matrix
from repro.timing.latency import LatencyModel
from repro.workloads.spec_like import make_benchmark_trace

LENGTH = 4_000
SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=LENGTH)
SCHEMES = ("lru", "stem")

#: run_matrix keyword arguments per case; "scale" replaces the scale.
GRID_CASES = {
    "default": {},
    "warmup_0.5": {"scale": replace(SCALE, warmup_fraction=0.5)},
    "machine": {"scale": replace(SCALE, machine=MachineConfig(
        latency=LatencyModel(memory_cycles=200),
    ))},
    "metrics_window": {"metrics_window": 4096},
    "ledger": {"ledger": True},
    "backend_auto": {"backend": "auto"},
    "backend_python": {"backend": "python"},
    "backend_numpy": {"backend": "numpy"},
    "retry": {"retry": RetryPolicy(max_attempts=2, reseed_step=3)},
    "watchdog": {"watchdog_seconds": 600.0},
    "isolate_false": {"isolate": False},
}

#: (lru, stem) keys of each grid case.
GRID_KEYS = {
    "default": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "warmup_0.5": (
        "370e25cd3bc2d483ea04473d2dff1f729dd34f2773cb849f2cc04be45fc933a6",
        "c0b3486c73cb42cc9582e4f6f90d8a20ce110ac5827298b7723347b8ae749341",
    ),
    "machine": (
        "6b7404afedf916f362b683116562705c47ec9723609e67c497ddb0da8cc73aa3",
        "95f2ba05c20e0e6be443992e7bec054a359271ce98b120436c209e4c633045ea",
    ),
    "metrics_window": (
        "973eb68e61a8ca7ee1b1f80a8b087e02b6d48ad5ced7d380ce389c738c507541",
        "cc5367215f99cb219cb703b49f0de5725cc997fd6c2108312bae3fcde9a9c02b",
    ),
    "ledger": (
        "3fd2dc2144044c51cdfc919b6abc9244319064903247d0b9edb040b9afd1c73b",
        "1f16e05ee1146e255655d873dab476bd75cf6c1d12701a4c904c2c60933ad7be",
    ),
    "backend_auto": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "backend_python": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "backend_numpy": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "retry": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "watchdog": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "isolate_false": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
}

PLAIN_SPEC = {
    "name": "pins",
    "schemes": list(SCHEMES),
    "benchmarks": ["vpr"],
    "geometries": [{"sets": 64, "assoc": 16}],
    "trace_length": LENGTH,
}

#: Spec keys set on their own over PLAIN_SPEC.
SPEC_CASES = {
    "plain": {},
    "name": {"name": "pins-renamed"},
    "schemes": {"schemes": ["lru", "stem", "dip"]},
    "benchmarks": {"benchmarks": ["vpr", "mcf"]},
    "geometries": {"geometries": [{"sets": 64, "assoc": 8}]},
    "seeds": {"seeds": [1, 2]},
    "fault_plans": {"fault_plans": [None, "sc_s:2"]},
    "trace_length": {"trace_length": LENGTH + 1},
    "warmup_fraction": {"warmup_fraction": 0.5},
    "metrics_window": {"metrics_window": 4096},
    "retry": {"retry": {"max_attempts": 2, "reseed_step": 3}},
    "watchdog_seconds": {"watchdog_seconds": 600},
    "backend_auto": {"backend": "auto"},
    "backend_python": {"backend": "python"},
    "backend_numpy": {"backend": "numpy"},
    "ledger_true": {"ledger": True},
    "ledger_false": {"ledger": False},
}

#: CampaignSpec.digest() of each spec case.
SPEC_DIGESTS = {
    "plain":
        "14f7ca21b3da0c9f9ece71dcb60ae97229ccfec68f9560f809835dcacfabb009",
    "name":
        "e1cf0a50f1bc53b0230768222c1cdbcd39f1d2a6150df1f67676ca8071b8ff94",
    "schemes":
        "97fc430d0a9a2133585bc424a21e9f3be203a374aceeebb46a282fd8ac300581",
    "benchmarks":
        "e0e25b9475b69522b76062912ac48df8c4c83fcac9014617d605a8da938a4eab",
    "geometries":
        "970b51a68625815242519ef1bf204b870a8461c2012094d84ff1ccde44760281",
    "seeds":
        "09f502f6bf655902ae0f781903c5920b013c20106fae9e6e816ed3ec45cecfee",
    "fault_plans":
        "10ab0ec4982dfd66b36a07d4a412f90c3910c55f5d63cf26c55e718b733f83c6",
    "trace_length":
        "5d31f4915b9b5476326a3eba6d2e940dbbdcc2cf50219a63a25b60a26b949f3a",
    "warmup_fraction":
        "5ffe4ad38207ab39368d50e572383a4308e48be900b9fe68c79018404a33f4c2",
    "metrics_window":
        "3be6f29906da2fa184da1c0ee025bb08c518d2d2f64c296acf8b9306ef3db045",
    "retry":
        "1694dfbb0b83407f12f1af4e221356664d10ee4bf1d144732aae9532edb9a343",
    "watchdog_seconds":
        "e8274d5af7f84407d2119c5298953884da26874aaa9176da90e14ea18f69d4dd",
    "backend_auto":
        "2025939a2af5a978f5cf1bf21c5f8a7a4644dd995de3e16175245f2b31a22735",
    "backend_python":
        "90c5f37d5880c9a33a1f7303f0079bb1d74c05215e05f8f8cb928da7d271be61",
    "backend_numpy":
        "bb163a8d1125cba93f7fe57c943a40a39b8f9dfbfd76df20f439d0d0a82eb772",
    "ledger_true":
        "30ff713cbf978e817664f0935503f97f2690f2f3e0bf0582f5f7a42993a4a1f7",
    "ledger_false":
        "14f7ca21b3da0c9f9ece71dcb60ae97229ccfec68f9560f809835dcacfabb009",
}

#: Spec cases whose cells run one option over PLAIN_SPEC's grid.
CAMPAIGN_CELL_CASES = {
    "plain": {},
    "fault_plan": {"fault_plans": ["sc_s:2"]},
    "warmup_fraction": {"warmup_fraction": 0.5},
    "metrics_window": {"metrics_window": 4096},
    "retry": {"retry": {"max_attempts": 2, "reseed_step": 3}},
    "watchdog_seconds": {"watchdog_seconds": 600},
    "backend_numpy": {"backend": "numpy"},
    "ledger": {"ledger": True},
}

#: (lru, stem) keys of each campaign cell case.
CAMPAIGN_KEYS = {
    "plain": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "fault_plan": (
        "a07cb0418de9b8721249d88c3ad48b505140aceefc2d17a73c4605c6079bf19e",
        "7233535294e188ca35385689d2e7fa5a37afda37bf04c81b5b4279b31c945f6c",
    ),
    "warmup_fraction": (
        "370e25cd3bc2d483ea04473d2dff1f729dd34f2773cb849f2cc04be45fc933a6",
        "c0b3486c73cb42cc9582e4f6f90d8a20ce110ac5827298b7723347b8ae749341",
    ),
    "metrics_window": (
        "973eb68e61a8ca7ee1b1f80a8b087e02b6d48ad5ced7d380ce389c738c507541",
        "cc5367215f99cb219cb703b49f0de5725cc997fd6c2108312bae3fcde9a9c02b",
    ),
    "retry": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "watchdog_seconds": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "backend_numpy": (
        "3d2c0c7148679beabb955dababfe77923c5c6dae1aab4d3e9ce7c405ab3811e4",
        "69628cd881b580c70de303683f71255225baa036e78d0dbacdc23d293ad86ae9",
    ),
    "ledger": (
        "3fd2dc2144044c51cdfc919b6abc9244319064903247d0b9edb040b9afd1c73b",
        "1f16e05ee1146e255655d873dab476bd75cf6c1d12701a4c904c2c60933ad7be",
    ),
}


@pytest.fixture(autouse=True)
def fixed_version(monkeypatch):
    monkeypatch.setattr(manifest_module, "__version__", "0.0.0+pins")


@pytest.fixture(scope="module")
def trace():
    return make_benchmark_trace("vpr", num_sets=64, length=LENGTH)


def grid_keys(monkeypatch, trace, case):
    """Keys of the cells run_matrix hands the runner for one case."""
    captured = []

    def capture(runner, specs):
        captured.extend(specs)
        return []

    monkeypatch.setattr(ParallelRunner, "run", capture)
    options = dict(GRID_CASES[case])
    run_matrix([trace], SCHEMES, scale=options.pop("scale", SCALE),
               **options)
    return tuple(cell_cache_key(spec) for spec in captured)


def write_spec(tmp_path, document):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_cell_keys(monkeypatch, trace, case):
    assert grid_keys(monkeypatch, trace, case) == GRID_KEYS[case]


@pytest.mark.parametrize("case", sorted(SPEC_CASES))
def test_campaign_spec_digest(tmp_path, case):
    path = write_spec(tmp_path, {**PLAIN_SPEC, **SPEC_CASES[case]})
    assert load_campaign_spec(path).digest() == SPEC_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CAMPAIGN_CELL_CASES))
def test_campaign_cell_keys(tmp_path, trace, case):
    path = write_spec(tmp_path, {**PLAIN_SPEC, **CAMPAIGN_CELL_CASES[case]})
    spec = load_campaign_spec(path)
    keys = tuple(
        cell_cache_key(cell.cell_spec(spec, trace))
        for cell in build_cells(spec)
    )
    assert keys == CAMPAIGN_KEYS[case]


def test_keys_cover_exactly_the_result_inputs():
    """Warm-up, machine, window and ledger move the key; nothing else."""
    default = GRID_KEYS["default"]
    moving = {"warmup_0.5", "machine", "metrics_window", "ledger"}
    for case, keys in GRID_KEYS.items():
        assert (keys != default) == (case in moving), case
    assert CAMPAIGN_KEYS["plain"] == default
    assert CAMPAIGN_KEYS["fault_plan"] != default
    assert len(set(GRID_KEYS["default"])) == len(SCHEMES)
