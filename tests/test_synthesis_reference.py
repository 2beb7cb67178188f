"""``generate_trace`` against the naive reference synthesiser.

The reference (``tests/synthesis_reference.py``) makes one
``SplitMix.random()`` call per draw; the kernel reads the same draws by
index from SplitMix64 blocks.  Shrinking the block size forces refills
at every point of an access, and of a recency walk.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.workloads import generators
from repro.workloads.generators import (
    SetGroupSpec,
    WorkloadSpec,
    generate_trace,
)
from tests.synthesis_reference import reference_trace


@st.composite
def workload_specs(draw):
    shares = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    groups = []
    for share in shares:
        ws_min = draw(st.integers(1, 10))
        groups.append(SetGroupSpec(
            fraction=share / sum(shares),
            weight=draw(st.floats(0.1, 4.0)),
            kind=draw(st.sampled_from(
                ("cyclic", "zipf", "streaming", "recency")
            )),
            ws_min=ws_min,
            ws_max=ws_min + draw(st.integers(0, 10)),
            zipf_alpha=draw(st.floats(0.2, 1.5)),
            reuse_mean=draw(st.one_of(
                st.sampled_from((1.0, 6.0, 1e5)), st.floats(0.5, 50.0)
            )),
            new_fraction=draw(st.one_of(
                st.sampled_from((1.0, 0.01)), st.floats(1e-3, 1.0)
            )),
            stream_fraction=draw(st.one_of(
                st.just(0.0), st.floats(0.0, 0.95)
            )),
        ))
    return WorkloadSpec(
        name="fuzz",
        groups=tuple(groups),
        write_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99))),
        shuffle_sets=draw(st.booleans()),
    )


def _assert_matches_reference(spec, num_sets, length, seed):
    trace = generate_trace(spec, num_sets=num_sets, length=length, seed=seed)
    addresses, writes = reference_trace(spec, num_sets, length, seed=seed)
    assert trace.addresses.tolist() == addresses
    assert trace.writes == writes


@settings(max_examples=120, deadline=None)
@given(
    spec=workload_specs(),
    num_sets=st.sampled_from((1, 2, 4)),
    length=st.integers(1, 300),
    seed=st.integers(0, (1 << 64) - 1),
    block=st.sampled_from((generators._ACCESS_DRAWS, 5, 16, 64, None)),
)
def test_generate_trace_matches_reference(spec, num_sets, length, seed, block):
    block = block or generators._BLOCK_DRAWS
    with mock.patch.object(generators, "_BLOCK_DRAWS", block):
        _assert_matches_reference(spec, num_sets, length, seed)


def test_walk_longer_than_a_block():
    # Nearly every access is fresh, and a walk almost never stops
    # early, so the rare walks run back over more than a whole block.
    spec = WorkloadSpec(name="long-walks", groups=(SetGroupSpec(
        fraction=1.0, weight=1.0, kind="recency",
        new_fraction=0.999, reuse_mean=1e18, stream_fraction=0.001,
    ),), write_fraction=0.5)
    length = 3 * generators._BLOCK_DRAWS
    _assert_matches_reference(spec, 1, length, seed=5)
    newest, longest = 0, 0
    for address in generate_trace(spec, 1, length, seed=5).addresses:
        tag = address >> 6
        if tag < 1 << 24:  # not an injected block
            longest = max(longest, newest - tag)
            newest = max(newest, tag)
    assert longest > generators._BLOCK_DRAWS
