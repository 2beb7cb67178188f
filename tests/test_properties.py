"""Hypothesis property tests: structural invariants under random load.

Every cache scheme must keep its internal bookkeeping consistent for
*any* access stream; these tests drive randomly generated traces into
each scheme and then assert the scheme's own ``check_invariants`` plus
the universal statistics identities.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.rng import Lfsr
from repro.core.config import StemConfig
from repro.core.stem_cache import StemCache
from repro.policies.registry import available_policies, make_policy
from repro.spatial.sbc import SbcCache
from repro.spatial.vway import VwayCache

GEOMETRY = CacheGeometry(num_sets=8, associativity=4)

access_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),    # set index
        st.integers(min_value=0, max_value=23),   # tag
        st.booleans(),                            # is_write
    ),
    min_size=1,
    max_size=500,
)


def drive(cache, stream):
    mapper = GEOMETRY.mapper
    for set_index, tag, is_write in stream:
        cache.access(mapper.compose(tag, set_index), is_write=is_write)
    return cache


def assert_stats_identities(stats):
    assert stats.hits + stats.misses == stats.accesses
    assert stats.local_hits + stats.cooperative_hits == stats.hits
    assert (
        stats.misses_single_probe + stats.misses_double_probe == stats.misses
    )
    assert stats.writebacks <= stats.evictions + stats.spills


class TestEveryPolicyKeepsBaseCacheConsistent:
    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams, policy_name=st.sampled_from(
        available_policies()
    ))
    def test_invariants(self, stream, policy_name):
        cache = SetAssociativeCache(
            GEOMETRY, make_policy(policy_name), rng=Lfsr()
        )
        drive(cache, stream)
        cache.check_invariants()
        assert_stats_identities(cache.stats)

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams, policy_name=st.sampled_from(
        available_policies()
    ))
    def test_resident_block_rereference_always_hits(self, stream, policy_name):
        cache = SetAssociativeCache(
            GEOMETRY, make_policy(policy_name), rng=Lfsr()
        )
        drive(cache, stream)
        for set_index in range(GEOMETRY.num_sets):
            for view in cache.resident_blocks(set_index):
                address = GEOMETRY.mapper.compose(view.tag, set_index)
                assert cache.access(address).is_hit


class TestSbcProperties:
    @settings(max_examples=25, deadline=None)
    @given(stream=access_streams)
    def test_invariants(self, stream):
        cache = SbcCache(GEOMETRY)
        drive(cache, stream)
        cache.check_invariants()
        assert_stats_identities(cache.stats)

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams)
    def test_couplings_balance_decouplings(self, stream):
        cache = SbcCache(GEOMETRY)
        drive(cache, stream)
        live_pairs = sum(
            1
            for s in range(GEOMETRY.num_sets)
            if cache.association[s] != s
        )
        assert live_pairs % 2 == 0
        assert (
            cache.stats.couplings - cache.stats.decouplings
            == live_pairs // 2
        )


class TestVwayProperties:
    @settings(max_examples=25, deadline=None)
    @given(stream=access_streams)
    def test_invariants(self, stream):
        cache = VwayCache(GEOMETRY)
        drive(cache, stream)
        cache.check_invariants()
        assert_stats_identities(cache.stats)

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams)
    def test_total_lines_bounded_by_capacity(self, stream):
        cache = VwayCache(GEOMETRY)
        drive(cache, stream)
        owned = sum(
            cache.lines_owned_by(s) for s in range(GEOMETRY.num_sets)
        )
        assert owned <= GEOMETRY.num_lines


class TestStemProperties:
    @settings(max_examples=25, deadline=None)
    @given(stream=access_streams)
    def test_invariants(self, stream):
        cache = StemCache(GEOMETRY)
        drive(cache, stream)
        cache.check_invariants()
        assert_stats_identities(cache.stats)

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams)
    def test_invariants_without_receiving_control(self, stream):
        cache = StemCache(
            GEOMETRY, config=StemConfig(receiving_control=False)
        )
        drive(cache, stream)
        cache.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams)
    def test_resident_home_blocks_hit_on_rereference(self, stream):
        cache = StemCache(GEOMETRY)
        drive(cache, stream)
        for set_index in range(GEOMETRY.num_sets):
            for view in cache.resident_blocks(set_index):
                if view.cooperative:
                    continue
                address = GEOMETRY.mapper.compose(view.tag, set_index)
                assert cache.access(address).is_hit

    @settings(max_examples=15, deadline=None)
    @given(stream=access_streams)
    def test_shadow_sets_respect_capacity(self, stream):
        cache = StemCache(GEOMETRY)
        drive(cache, stream)
        for ranks in cache.shadow_order:
            assert len(ranks) <= GEOMETRY.associativity

    @settings(max_examples=10, deadline=None)
    @given(stream=access_streams, seed=st.integers(1, 0xFFFF))
    def test_deterministic_given_seed(self, stream, seed):
        a = StemCache(GEOMETRY, rng=Lfsr(seed=seed))
        b = StemCache(GEOMETRY, rng=Lfsr(seed=seed))
        mapper = GEOMETRY.mapper
        for set_index, tag, is_write in stream:
            address = mapper.compose(tag, set_index)
            assert a.access(address, is_write) == b.access(address, is_write)
