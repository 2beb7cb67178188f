"""Byte pins of the 15 model traces at the figures' scale.

``EXPERIMENTS.md`` runs every figure on 256 sets x 400k accesses, where
recency walks are longest and SplitMix64 blocks refill most often, so
these digests pin trace synthesis where the 64-set pins in
``tests/test_trace_synthesis.py`` reach least.  The values were recorded
from the per-draw generator, before draws were computed in blocks.
Synthesising all 15 takes about 11 s, so CI runs this module on its own
instead of in the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/test_figure_trace_pins.py -q
"""

import pytest

from repro.workloads.spec_like import benchmark_names, make_benchmark_trace

FIGURE_SCALE_DIGESTS = {
    "ammp": "8d1d6b7fbd2baf6ef2ab1813e867789d37d3ac6a6c6fbeaaf6da4d0a53a2204f",
    "apsi": "ffc1207442215ef85f1c39dca5a5eb07c8d0fc8a0f1f651d91c1b530fcaeee22",
    "astar":
        "56f4ab5d8fd11cdcf562f41aebb1b2b0746303051f389d6e2314c53973653237",
    "omnetpp":
        "8c243e82e17709e73f6f5733044229c5f784b8bd0a91d06f1735f62a9b125fed",
    "xalancbmk":
        "74082effb1042f7a7d8e0c14067e05ca615d037bbee8727b026e0b0387060131",
    "art": "a85a6a711534ad03b035994aa0c594a7981007e636fb0badf0ad295d06c16b96",
    "cactusADM":
        "ad38048b0a101c17a10247a7b5f1eb5b061cac1c9acd86f6f4f479cf7a78e125",
    "galgel":
        "8d0a2020d1dfddefdf7d442fdc22be7b6e9cd1f7e6fd0ca399cc5f71a442fc68",
    "mcf": "03a09b9bc881b94a036588b2a48141dd75a0fae9d471ad2ccc5eebcb149682b0",
    "sphinx3":
        "c69099eff81024269a53ec913ccff1b6a3ff511ad72643efcbd3a538ae939539",
    "gobmk":
        "41a290fc07294c1ddbf6c456e572b1e6787f8997b62f3f2fe2cac73cf504d73f",
    "gromacs":
        "a0e4a881f916c82109a4550327095fb5bfa28e91dbb9ba8cc18a9655bd27947c",
    "soplex":
        "4499d80e98a31154e89943cd10752005a89731cd8679b95bbbbb387340ff400a",
    "twolf":
        "e5420158129e05934ce2c3703c0e928a6f21cbe12620ab4449e82f5fb1f3185c",
    "vpr": "e1fa85d491255ff462fe4e9ebc3e6f0c77ee65f6a575e8f7ffd2a7149924c878",
}


def test_every_model_is_pinned():
    assert sorted(FIGURE_SCALE_DIGESTS) == sorted(benchmark_names())


@pytest.mark.parametrize("name", benchmark_names())
def test_figure_scale_model_bytes(name):
    trace = make_benchmark_trace(name, num_sets=256, length=400_000)
    assert trace.content_digest() == FIGURE_SCALE_DIGESTS[name]
