"""Byte pins of trace synthesis.

Every synthesised trace feeds content digests, run-cache keys and
campaign journals, so the generator kernel may change for speed only if
every byte it produces stays the same.  These sha256 ``content_digest``
values were recorded from the object-per-set implementation (one
``SplitMix.random()`` call per draw, one ``_SetStream.next_tag`` call
per access); a change that moves any of them invalidates every stored
run-cache entry and every existing campaign journal.
"""

import pytest

from repro.workloads.mixes import phased_trace
from repro.workloads.patterns import hot_cold, pointer_chase
from repro.workloads.spec_like import (
    BENCHMARKS,
    benchmark_names,
    make_benchmark_trace,
)

#: All 15 models at num_sets=64, length=20_000.
MODEL_DIGESTS = {
    "ammp": "dd532ea3e669a1ab760735bc84e87441afad4a66089b39f97d5ad52e7b41c90b",
    "apsi": "fa8c3a65ae7cf2baa4c5c97d678c3fdbc6296fcadc9d32d445408957667ec92c",
    "astar": "5d05b51ad04cafc4e83ff527540ba98344467bfcdc30effec452789c02adab66",
    "omnetpp":
        "a424c3b197b61b34ff2986d9960f895c6e422ba7b63c37075ebc4da6581f6fc5",
    "xalancbmk":
        "4fcfdfe02a66844d75dc7686de1582c9304e9ba324ee33f813cfb889f08e34cf",
    "art": "8ec2236d72a447df4eac7ab5a9d33952839ce51b1049ad1734eec97c542b742a",
    "cactusADM":
        "c93fc1d6c7679912642b4ae8f86c10c19ae91739ae43394d4d9e09cb2ca92d65",
    "galgel":
        "d6c49c1078f88f29b4dd164602fb9a65fca7082cdc1527b2f61d1daa1d437253",
    "mcf": "32351ab83df60e4a244c38e8f7ed3ea2b89c3bff76ac7609a582547640acbc14",
    "sphinx3":
        "b22c5ba67031e8b93b5c0c322e1fd79f705e7031993961e646db3d29aea8beaf",
    "gobmk": "3b732e14f7c3c7ddfa447ce102eb44ca2d37e6490863d95a70b3e29330e4e537",
    "gromacs":
        "bb468ce9fea0743818a657f1f6e07108cb17f8537c2376a0c4798a3dd784687f",
    "soplex":
        "909710c31608b15ad013b4b10fbd20c45fc8c0218d9d416fcc343bd3577c0af1",
    "twolf": "04ae272f27bc33eb3b04d31bccf7cb3c81220b4b3e8acc6ef6571391b8f117ad",
    "vpr": "3fdb4bac7448af64c6c22ae0baf05a5884f1ca605ecf974ed922078e5f61adb0",
}


def test_every_model_is_pinned():
    assert sorted(MODEL_DIGESTS) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_benchmark_model_bytes(name):
    trace = make_benchmark_trace(name, num_sets=64, length=20_000)
    assert trace.content_digest() == MODEL_DIGESTS[name]


def test_write_flags_bytes():
    # xalancbmk mixes all four stream kinds; the write draw follows the
    # tag draws of every access.
    trace = make_benchmark_trace(
        "xalancbmk", num_sets=64, length=20_000, write_fraction=0.3
    )
    assert trace.writes is not None
    assert trace.content_digest() == (
        "d0808a5c95663b3caa8e9dbfd8ce72e467b389b080c9672e8f36abfee1d9f448"
    )


def test_phased_trace_bytes():
    trace = phased_trace(
        [BENCHMARKS[name].workload() for name in ("omnetpp", "mcf", "vpr")],
        phase_length=5_000, num_sets=64, seed=9,
    )
    assert trace.content_digest() == (
        "f52fcdb629c9800ba49ceef23145face637f1183fdcd807b0a4de71226924522"
    )


def test_hot_cold_bytes():
    trace = hot_cold(hot_bytes=4096, cold_bytes=1 << 20, length=20_000)
    assert trace.content_digest() == (
        "349359bcc407f03780c4723ccf6051350f000bb1b08b623889e8b3c681abfcc5"
    )


def test_pointer_chase_bytes():
    trace = pointer_chase(num_nodes=5_000, hops=20_000)
    assert trace.content_digest() == (
        "b77daed02e104d2b6c02fda218fe1eadcedce953b7fb93b1ac0d8cc3ac57f5f0"
    )

