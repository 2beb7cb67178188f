"""Tests for the Set Balancing Cache."""

import pytest

from repro.cache.access import AccessKind
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.sim.simulator import run_trace
from repro.spatial.sbc import SbcCache
from repro.workloads.synthetic import figure2_trace

from tests.conftest import cyclic_addresses, random_addresses


def make_sbc(num_sets=8, associativity=4, **kwargs):
    geometry = CacheGeometry(num_sets=num_sets, associativity=associativity)
    return SbcCache(geometry, **kwargs)


def interleave(*streams):
    return [address for accesses in zip(*streams) for address in accesses]


class TestConstruction:
    def test_needs_two_sets(self):
        with pytest.raises(ConfigError):
            SbcCache(CacheGeometry(num_sets=1, associativity=4))

    def test_default_thresholds(self):
        cache = make_sbc(associativity=4)
        assert cache.saturation_limit == 8
        assert cache.couple_threshold == 4

    def test_rejects_bad_saturation_limit(self):
        with pytest.raises(ConfigError):
            make_sbc(saturation_limit=0)

    @pytest.mark.parametrize("kwargs", [
        {"couple_threshold": 0},
        {"couple_threshold": -3},
        {"saturation_limit": 1},  # derives couple_threshold = 0
    ], ids=["zero", "negative", "derived-zero"])
    def test_rejects_non_positive_couple_threshold(self, kwargs):
        # No set's saturation is below a threshold of 0 or less, so the
        # cache would never couple and silently behave as plain LRU.
        with pytest.raises(ConfigError, match="couple_threshold"):
            make_sbc(**kwargs)


class TestSaturationTracking:
    def test_misses_raise_saturation(self):
        cache = make_sbc()
        for address in cyclic_addresses(cache.geometry, 0, 12, 8):
            cache.access(address)
        assert cache.saturation_of(0) == 8  # clamped at the limit

    def test_hits_lower_saturation(self):
        cache = make_sbc()
        block = cache.geometry.mapper.compose(1, 0)
        cache.access(block)
        assert cache.saturation_of(0) == 1
        cache.access(block)
        assert cache.saturation_of(0) == 0


class TestCooperation:
    def test_figure2_example1_perfect_balance(self):
        # ws (6, 2) on 2 sets x 4 ways: SBC retains everything.
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        result = run_trace(cache, figure2_trace(1, rounds=2048),
                           warmup_fraction=0.5)
        assert result.miss_rate == 0.0
        assert cache.stats.cooperative_hits > 0

    def test_figure2_example3_no_givers_no_gain(self):
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        result = run_trace(cache, figure2_trace(3, rounds=2048),
                           warmup_fraction=0.5)
        assert result.miss_rate == 1.0

    def test_roles_assigned_on_coupling(self):
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(1, rounds=512).addresses:
            cache.access(address)
        assert cache.role_of(0) == "source"
        assert cache.role_of(1) == "dest"
        cache.check_invariants()

    def test_coop_blocks_carry_cc_bit(self):
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(1, rounds=512).addresses:
            cache.access(address)
        coop = [b for b in cache.resident_blocks(1) if b.cooperative]
        assert len(coop) == 2  # blocks E and F live in set 1
        assert all(b.cc_bit == 1 for b in coop)

    def test_coop_miss_counts_double_probe(self):
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(2, rounds=1024).addresses:
            cache.access(address)
        assert cache.stats.misses_double_probe > 0

    def test_unconditional_receiving_pollutes(self):
        # The STEM paper's critique (Section 4.6): a destination keeps
        # receiving even as spills displace its own useful blocks.
        geometry = CacheGeometry(num_sets=2, associativity=4)
        cache = SbcCache(geometry)
        thrash = cyclic_addresses(geometry, 0, 16, 3000)   # saturated
        friendly = cyclic_addresses(geometry, 1, 4, 3000)  # fits exactly
        for address in interleave(thrash, friendly):
            cache.access(address)
        assert cache.stats.spills > 0
        # The friendly set's own blocks get evicted by received spills.
        own = [b for b in cache.resident_blocks(1) if not b.cooperative]
        assert len(own) < 4


class TestInvariantsUnderRandomLoad:
    def test_random_stream_consistency(self):
        cache = make_sbc(num_sets=16, associativity=4)
        for address in random_addresses(cache.geometry, 4000, tag_space=48):
            cache.access(address)
        cache.check_invariants()
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.local_hits + stats.cooperative_hits == stats.hits
        assert (
            stats.misses_single_probe + stats.misses_double_probe
            == stats.misses
        )

    def test_writes_propagate_dirty_to_coop_blocks(self):
        cache = SbcCache(CacheGeometry(num_sets=2, associativity=4))
        trace = figure2_trace(1, rounds=512)
        for address in trace.addresses:
            cache.access(address, is_write=True)
        assert cache.stats.writebacks >= 0  # exercised without error
        coop = [b for b in cache.resident_blocks(1) if b.cooperative]
        assert coop  # cooperative placement happened under writes
