"""Byte pins of ledgers and event streams.

A ledgered result feeds run-cache entries, campaign journals and
``repro explain``; a traced event stream feeds ``repro trace`` logs.
The tracer may change how it delivers events for speed only if every
byte it produces stays the same.  These sha256 values were recorded
when every tracepoint still built its event for every attached sink;
a change that moves any of them changes what ledgered runs store.

Each cell runs 64 sets x 16 ways, 20k accesses, warm-up 0.25:

* ``result_to_dict`` of a ``ledger=True`` run, covering
  ``RunLedger.as_dict`` (``events_seen`` and the attribution counters
  included) with the manifest's host, timing and version fields left
  out;
* ``result_to_dict`` of a run without a ledger, plain and with
  ``metrics_window=4096``, on omnetpp, the same manifest fields left
  out (recorded while ``result_to_dict`` still built its payload with
  ``dataclasses.asdict``);
* the JSONL bytes of the event stream of a run traced into a
  :class:`RingBufferSink`, followed by that run's
  ``Tracer.events_emitted``.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.cache.geometry import CacheGeometry
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.cache import result_to_dict
from repro.sim.config import PAPER_SCHEMES, make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=64, associativity=16)
LENGTH = 20_000
WARMUP = 0.25
BENCHMARKS = ("omnetpp", "mcf", "vpr")

#: Manifest fields that vary by host, run or package version.
UNPINNED_MANIFEST_FIELDS = (
    "python_version", "platform", "warmup_seconds", "measured_seconds",
    "package_version", "content_hash",
)

#: (scheme, benchmark) -> (ledgered result digest, event stream digest).
DIGESTS = {
    ("LRU", "omnetpp"): (
        "ef1d46253f86beac5183d7f6fdbd6bd3233f4a6b3b18475980e1a0fda50801f8",
        "8250d6f92addc506787f7c9f7435a8bfa88875995b65752a43b02882fb2747f9",
    ),
    ("LRU", "mcf"): (
        "713d558b54f5c2a25b3bfc7e3e6564a72e5311ada9ae86a4d70d5c9b34c78f5d",
        "bc6eb48844ba31cfe175155d7d0574ff22ce0ce3d03ffde78771fff15edee069",
    ),
    ("LRU", "vpr"): (
        "ce6069052e184519cb1363c3c540d06a2316e53e60e51e091300f756d03bf3a3",
        "5a841f10540ab7f0c6b58191e43729813d4d6679be232c306704f962d913a107",
    ),
    ("DIP", "omnetpp"): (
        "6310069c08e6abcdc66824e1b873aee3365968c71cd2294231e26152ff562427",
        "32d95cc9c03e9f75a24a7f35a18f170d6fee0a0a4577b44d62e228290f0c77c6",
    ),
    ("DIP", "mcf"): (
        "7fc20eb220d6db2783f82b32ba188b49942fdfef88a50411684cf7b826ed50ed",
        "4df103ee12e36a3cde221352d05807bd189badba9a9a7c99af8e6c33fc83d695",
    ),
    ("DIP", "vpr"): (
        "38111c905eb8adc6f0da73ef2f6d26bbdef3435943f89be37a4227db3f87c206",
        "9727746cb16a1f64bb6e23c7a4e2dbc034bb4ef155450fb8710952f72c68111e",
    ),
    ("PeLIFO", "omnetpp"): (
        "d7c1555204699aac77fac0a70c514c9aa9abda71f378b06df1fdf542dac7a07e",
        "25d8c29429d0945f373d73940da8859659a6f5f646591282892e4811e66b155e",
    ),
    ("PeLIFO", "mcf"): (
        "1ba3a151623ef0cf90fa41d94aac50fa9209a0fe3608d140abcd9bc1455a7162",
        "efca2834f6cfe268d0ec569541e51ccc33dcbc4530b6f1e47f25e09f96d0a63c",
    ),
    ("PeLIFO", "vpr"): (
        "70dd3283a05ab20bc0dc07779d0bfbdd5731381c6a4a73be0ed81aa49d66ebd6",
        "3d549a474c0f0e7e63c057affd1bea80aaae0bd415da619e47d276bff7526cfd",
    ),
    ("V-Way", "omnetpp"): (
        "010c6fc960adfceb2c73dd8a2685b4aac65d539a1b149ff2ebe4a83158ff6fae",
        "2c6eb4a65c859012a980cdfea848acadf62bd7ec7bbde335c0b2e8882c8884ee",
    ),
    ("V-Way", "mcf"): (
        "aa86cf03a74993d6649e10f6c3fcb069160b673aae0ed6d4be6f6c8a9d8f9883",
        "07899f96c447a64fec82e098bef05e3c66a078f663c235b8f6ea5880fd901dea",
    ),
    ("V-Way", "vpr"): (
        "fa93f14e67e90ded73835c294563a8e26b398c30168182f4b6010ba4e281d7e1",
        "f98c94217371ab06dd5139dd5d207f9b0b9cac5836c8efc6678d497b151fa3aa",
    ),
    ("SBC", "omnetpp"): (
        "4498d6799c032824d8b65fa85405c092d1f2e62372d281066121d3858b4e56d3",
        "fcaf45ef578a221341b1b5ed02ddc8274fb70ca18eb8715d71c75532ba91334f",
    ),
    ("SBC", "mcf"): (
        "919e645015d1883648a52ddba03d4402e7d7d032a719d7f889885a0f65cdf915",
        "e69ad9286832e5abf03de2d22c25a292ea5f1370dc1e3da8ec1fa5f909d11052",
    ),
    ("SBC", "vpr"): (
        "8d9568a5e76e37f684dc820ec8a697be9ba5e51dc30261eab3d78772c09faacb",
        "5a841f10540ab7f0c6b58191e43729813d4d6679be232c306704f962d913a107",
    ),
    ("STEM", "omnetpp"): (
        "f54a5c59d82113811aca15005a10cb423b2248eb6f17e9119b041ae37e57a158",
        "4e7d7df2f432619979fd69a1d03b5d403910c73ff5b8ef619d7d57810b4a6b35",
    ),
    ("STEM", "mcf"): (
        "05a22018c29b2dea6c09e7a2a0b507ef8e00dc8021025ab97995e7dbdb0b39b4",
        "9edc178876b10750f601ff0a3654990cce86e6cecffdcc4a13c4e4fa6fa86cec",
    ),
    ("STEM", "vpr"): (
        "792fb71b8047d7d5fb7fdf77242945feda15953a0bb60f4a0ff5ae85a9f4f12f",
        "cb2c0aa99abed8227360985f62fc54005168790b8435e994c1054154d97023d9",
    ),
}

#: Event stream digest of static SBC on omnetpp, recorded before SBC,
#: static SBC and STEM came to share one block store.
STATIC_SBC_EVENT_DIGEST = (
    "5231b1f2bbebe66bdf47c99571d0d84024a6cbb44d966316371ae174cfca3faa"
)

#: STEM on omnetpp with ledger=True and metrics_window=4096.
WINDOWED_LEDGER_DIGEST = (
    "62b087f0bf9ebd8bbe0808bf6e71dfe2ed82df8067a91822b9449100e9ad2b01"
)

#: (scheme, metrics_window) -> result digest of a run on omnetpp
#: without a ledger; window None is a plain run.
UNLEDGERED_DIGESTS = {
    ("LRU", None):
        "ce7c173d1b29ba031930589c73262572d88c1c003584b4ad6150911f5701f2aa",
    ("LRU", 4096):
        "ac4330940edc6faf34ca4aa03c47eafcb7f0f5938c2b578ebe339c99464eb8d8",
    ("DIP", None):
        "b32933ea483043cc3f069e41803825b97bf36923c7941042e61c7b64c081deee",
    ("DIP", 4096):
        "5fc3f451a961660b7e1fb3e56d12965823f572a0f5b779943d92fa96ec31a270",
    ("PeLIFO", None):
        "3a8808b7f20497cc9b38e68b072d40f64764d300bc7c240e795a97182b62c76f",
    ("PeLIFO", 4096):
        "a0aa89b5c4fc634e33eac088c6e242374e0802fcf612f3d47becae019a246cde",
    ("V-Way", None):
        "1431939088205e28860f1aa2ee06bff17de02e53b64640d53581309c0e1e2686",
    ("V-Way", 4096):
        "4b9850217db6f392acbd85f865333a7204b1972d95bad3ec182fbbd9b747c88f",
    ("SBC", None):
        "2965d4424ea8f8fb20955559eeb3bce7b0f7b9b5bdd1c08f723e0164578fb95f",
    ("SBC", 4096):
        "99fbe2ed97cb331d3a11cd24b1ff280e0eb20461bc507e0b3be16ce36d51b16d",
    ("STEM", None):
        "4159cd4d74a1dcd3d74d70d2f9c5bb49c664cc57a4c17e603d388b20bfa78e8d",
    ("STEM", 4096):
        "0336107a6d10440352834a71c7814a8cfb95ead35f9717dfba0d6664495e6d10",
}


@lru_cache(maxsize=None)
def _trace(benchmark):
    return make_benchmark_trace(benchmark, num_sets=64, length=LENGTH)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_payload_digest(scheme, benchmark, metrics_window=None,
                          ledger=True):
    cache = make_scheme(scheme, GEOMETRY)
    result = run_trace(cache, _trace(benchmark), warmup_fraction=WARMUP,
                       ledger=ledger, metrics_window=metrics_window)
    payload = result_to_dict(result)
    for name in UNPINNED_MANIFEST_FIELDS:
        del payload["manifest"][name]
    return _sha256(json.dumps(payload, sort_keys=True))


def event_stream_digest(scheme, benchmark):
    sink = RingBufferSink()
    tracer = Tracer(sink)
    cache = make_scheme(scheme, GEOMETRY, tracer=tracer)
    run_trace(cache, _trace(benchmark), warmup_fraction=WARMUP)
    lines = [json.dumps(event.as_dict()) + "\n" for event in sink.events]
    lines.append(f"{tracer.events_emitted}\n")
    return _sha256("".join(lines))


CELLS = [(scheme, benchmark)
         for scheme in PAPER_SCHEMES for benchmark in BENCHMARKS]
CELL_IDS = [f"{scheme}-{benchmark}" for scheme, benchmark in CELLS]


def test_every_cell_is_pinned():
    assert sorted(DIGESTS) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_ledgered_result_bytes(cell):
    assert result_payload_digest(*cell) == DIGESTS[cell][0]


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_event_stream_bytes(cell):
    assert event_stream_digest(*cell) == DIGESTS[cell][1]


def test_static_sbc_event_stream_bytes():
    assert event_stream_digest("StaticSBC", "omnetpp") == \
        STATIC_SBC_EVENT_DIGEST


def test_windowed_ledgered_result_bytes():
    assert result_payload_digest(
        "STEM", "omnetpp", metrics_window=4096
    ) == WINDOWED_LEDGER_DIGEST


UNLEDGERED_CELLS = [(scheme, window)
                    for scheme in PAPER_SCHEMES for window in (None, 4096)]


@pytest.mark.parametrize(
    "cell", UNLEDGERED_CELLS,
    ids=[f"{scheme}-{window or 'plain'}" for scheme, window in
         UNLEDGERED_CELLS],
)
def test_unledgered_result_bytes(cell):
    scheme, window = cell
    assert result_payload_digest(
        scheme, "omnetpp", metrics_window=window, ledger=False
    ) == UNLEDGERED_DIGESTS[cell]
