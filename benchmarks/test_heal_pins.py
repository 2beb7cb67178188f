"""Byte pins of STEM's safe-mode heals and SBC's glitch failures.

STEM heals a faulted set by picking suspects with the coupling engine's
checks and repairing them through the engine; SBC has no safe mode, so
an association glitch can make it raise (ROADMAP item 3).  These pins
hold both at 64 sets x 16 ways x 20,000 accesses, broader than the
tier-1 heal pin in ``tests/test_scheme_pins.py``:

* STEM: the CLI's default plan and the tier-1 pin's three heal plans on
  omnetpp, mcf, ammp and astar at seeds 1-10, 160 traced campaigns with
  1,396 safe-mode entries; per plan and model, the entry count and one
  sha256 over each campaign's ``render()`` and its event stream;
* SBC: the CLI's default plan on omnetpp at seeds 1-30; the error text
  of each of the eight runs that raise, the sha256 of each report that
  completes.

The values were recorded before the association table was folded into
the coupling engine.  The campaigns take about 45 s on a 2-vCPU VM, so
CI runs this module on its own instead of in the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/test_heal_pins.py -q
"""

import hashlib
import json

import pytest

import repro.obs.manifest as manifest_module
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.resilience.campaign import run_fault_campaign
from repro.sim.config import ExperimentScale

#: The CLI's default plan (``repro faults``).
DEFAULT_PLAN = "sc_s:2,sc_t:2,shadow:4,association:1,heap:2,trace:4"
HEAL_PLANS = (
    DEFAULT_PLAN,
    "association:5,heap:5",
    "sc_s:10,sc_t:10,shadow:20,association:3,heap:5",
    "association:20",
)
STEM_BENCHMARKS = ("omnetpp", "mcf", "ammp", "astar")
STEM_SEEDS = range(1, 11)
SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=20_000)

#: (plan, model) -> safe-mode entries over seeds 1-10, and the sha256
#: over each campaign's report and event stream.
STEM_DIGESTS = {
    (DEFAULT_PLAN, "omnetpp"): (
        18,
        "ac9d506c6babfcc7266d19947755ea31c465b1b5925e3172583408adb20f6318",
    ),
    (DEFAULT_PLAN, "mcf"): (
        14,
        "1d26d2f572e9ba9886a3ca2422cbfa12076b55686101e01dd6dd22a4726badf7",
    ),
    (DEFAULT_PLAN, "ammp"): (
        11,
        "f34d97955649ce59ca0822a9287198a369f670c030ecb640fa543acff837330c",
    ),
    (DEFAULT_PLAN, "astar"): (
        17,
        "8616474d5b9a6e656b40923ca36035a68f497c40b6bb090f9512401b5e8d4189",
    ),
    ("association:5,heap:5", "omnetpp"): (
        83,
        "6baf9f387c4e1ba40991c450a938809f28b92ca243cb6fa0886828c82db43a2c",
    ),
    ("association:5,heap:5", "mcf"): (
        57,
        "e82387994c57a03e14941a7a2924c3b1edb94e54c296b067cd316cd7081a71af",
    ),
    ("association:5,heap:5", "ammp"): (
        45,
        "81c1b034a38b90bfe6e7ca85f9e67edd1b2112c9cb3ac13e6984842fb6a71fae",
    ),
    ("association:5,heap:5", "astar"): (
        69,
        "814622eaddbff57cb9995953b7a40ff22f7471f3b90c94ab838270e0994d6ba1",
    ),
    ("sc_s:10,sc_t:10,shadow:20,association:3,heap:5", "omnetpp"): (
        52,
        "0e7a03946dae92b23ff5fa4ce74254d3ce881b3e3ee080f166cd92ab238ae2e2",
    ),
    ("sc_s:10,sc_t:10,shadow:20,association:3,heap:5", "mcf"): (
        38,
        "33e4c17d62140171e9435b6c0cf99dac44adbdd7f9a57baebfab432d7197c697",
    ),
    ("sc_s:10,sc_t:10,shadow:20,association:3,heap:5", "ammp"): (
        27,
        "fde958f643a7a6d742ba0aa4fa38809d312eec9915031ae963607c4386b111e9",
    ),
    ("sc_s:10,sc_t:10,shadow:20,association:3,heap:5", "astar"): (
        33,
        "845c8c017c6ca1f7eb7a49a3df6eda8dc22dffc2ab5a9815b056dad20010e38f",
    ),
    ("association:20", "omnetpp"): (
        292,
        "783f751148eb45b490b09c5dfdc37c8050bd50bce53c8d7b52b340a40ac50f2a",
    ),
    ("association:20", "mcf"): (
        240,
        "d17640dbaf3112fdff481c994f1bb88a96171a56a325370b80f912b35a28eedc",
    ),
    ("association:20", "ammp"): (
        176,
        "1e3398accb3edc6fa84af31bbeb0c5255c89fc74c5bd1984057a6418d7643c1c",
    ),
    ("association:20", "astar"): (
        224,
        "c3df4a4c9500e6a7d392ac36f0da47310c58d24614c5d0dea919f04d9ff80670",
    ),
}

#: SBC on omnetpp under the default plan: seed -> the error a run
#: raises, or the sha256 of the report of a run that completes.
SBC_OUTCOMES = {
    1:
        "c99e6a3410ec09047e85b3b35580545990f9caacf40eec75b6e0ca7fd1ddb4ab",
    2: "SimulationError: couple(44, 25): a participant is already coupled",
    3:
        "cf03d3cc3563ad397a77e35f1c6c5705acde7899b4e3bcd49c62bbb0d8b42710",
    4:
        "ff5b6366beb96f93089f5f89c895e518f1e8644b57e6d77a8b58610c08776088",
    5:
        "4d8c45d0ad2111782e529333a69e1f206b1f9b2954e7db7763b3d43e477020e5",
    6: "SimulationError: couple(42, 38): a participant is already coupled",
    7:
        "066025b24e6a45eb1aa61eb8fedb72c896713d02585dabeb4d013c10cb6a1463",
    8:
        "9a0622633a6772695af2b45857cb79ce7beafeb4ac8ca0285dc3598ef9aa6e08",
    9:
        "9bd8de5c86095b35a16830497eb1594bff81815a2fb352f7557dd288ea737d59",
    10:
        "e4c7d6cdb9326a57dcb8bdd897cce6fb8c3f89fd262d6da29cfc59cf96dd9bc7",
    11:
        "b158e7412c8ac1c36abcea655f8eb4edc1f238954ecaff11ebc4a1c7ecbf2ea5",
    12:
        "6641f6abc5c41e77d62aea8154900479b7d98dfebc772c5b40dfcebd20a0dcc7",
    13: "SimulationError: couple(10, 61): a participant is already coupled",
    14:
        "23f6770a381bc5263735b9b4aab9d8f27c8d97bca49ae19127b088fc66ffdd0e",
    15:
        "ef3c2b5655ac155c83e2269c21e75bce4c7a0c8143159bebf5552487f195fde8",
    16:
        "ec18e7735b3fb33be15020f37bc7d542a5706d4c7b6cd78fb0a3a7c618327c42",
    17:
        "a9c1f6a4dc68c1562a68ba76d2c2dd1fe5f917f80ec5cf83b693eb4e1bea4356",
    18:
        "ba3729cdb92ce137c83af35542512349a03f09c234855ca19315f3c1329d7295",
    19:
        "e7dd6c15ef5759a58ab97a680f6d1082a338dccb7a6b2e599ef1d1698b7871f3",
    20:
        "ab4622edda545cd8bb4ca33f9a6f6d48abbfd2f94f2e3a1ec841d01cda74471f",
    21: "KeyError: 41",
    22:
        "6b357ec8b7e315939d9125444cf4bf79132c49afc7fc7f99a13a54120592a527",
    23: "SimulationError: couple(11, 26): a participant is already coupled",
    24:
        "1a223c69ef090ed4d280082e8569d0ac68601ac9cdce4fad520822a09a695d09",
    25:
        "bc8e1b6474660ff00ba85aa935efe0c77f485278b983d1809bf11392402e0681",
    26: "KeyError: 33",
    27:
        "bf7aadface63b528aa3b5e003cf0725b72eae9418b39e4dae4a5e7b8dafd5db9",
    28: "SimulationError: decouple(62, 3): sets are not coupled together",
    29:
        "1ef1dff7b9c4c949850ac43c9c5a3cf204642c825c525a03f6400430fcbe1593",
    30: "KeyError: 35",
}


@pytest.fixture(autouse=True)
def fixed_version(monkeypatch):
    monkeypatch.setattr(manifest_module, "__version__", "0.0.0+pins")


def _stem_digest(plan, benchmark):
    entries = 0
    digest = hashlib.sha256()
    for seed in STEM_SEEDS:
        sink = RingBufferSink()
        tracer = Tracer(sink)
        report = run_fault_campaign("stem", benchmark, plan=plan, seed=seed,
                                    scale=SCALE, tracer=tracer)
        entries += report.safe_mode_entries
        digest.update(report.render().encode("utf-8") + b"\n")
        for event in sink.events:
            digest.update(json.dumps(event.as_dict()).encode("utf-8") + b"\n")
        digest.update(f"{tracer.events_emitted}\n".encode("utf-8"))
    return entries, digest.hexdigest()


def _sbc_outcome(seed):
    try:
        report = run_fault_campaign("sbc", "omnetpp", plan=DEFAULT_PLAN,
                                    seed=seed, scale=SCALE)
    except Exception as exc:  # the pin records whatever SBC raises
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(report.render().encode("utf-8")).hexdigest()


def test_every_campaign_is_pinned():
    assert sorted(STEM_DIGESTS) == sorted(
        (plan, benchmark)
        for plan in HEAL_PLANS for benchmark in STEM_BENCHMARKS
    )
    assert sorted(SBC_OUTCOMES) == list(range(1, 31))
    assert sum(entries for entries, _ in STEM_DIGESTS.values()) == 1396


@pytest.mark.parametrize("plan", HEAL_PLANS)
@pytest.mark.parametrize("model", STEM_BENCHMARKS)
def test_stem_heal_bytes(plan, model):
    assert _stem_digest(plan, model) == STEM_DIGESTS[plan, model]


def test_sbc_glitch_outcomes():
    outcomes = {seed: _sbc_outcome(seed) for seed in SBC_OUTCOMES}
    assert outcomes == SBC_OUTCOMES
