"""Tests for the classic access-pattern generators."""

import pytest

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.policies.lru import LruPolicy
from repro.workloads.patterns import (
    hot_cold,
    pointer_chase,
    sequential_scan,
    strided_scan,
    tiled_matrix_traversal,
)


def miss_rate_under_lru(trace, num_sets=16, associativity=4):
    geometry = CacheGeometry(num_sets=num_sets, associativity=associativity)
    cache = SetAssociativeCache(geometry, LruPolicy())
    for address in trace.addresses:
        cache.access(address)
    return cache.stats.miss_rate


class TestSequentialScan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sequential_scan(array_bytes=0)

    def test_length(self):
        trace = sequential_scan(array_bytes=1024, passes=2, element_bytes=8)
        assert len(trace) == 2 * 128

    def test_addresses_monotone_within_pass(self):
        trace = sequential_scan(array_bytes=512, element_bytes=8)
        assert trace.addresses.tolist() == sorted(trace.addresses)

    def test_oversized_scan_thrashes_lru(self):
        # Array >> cache, repeated passes: near-100% line misses.
        trace = sequential_scan(
            array_bytes=64 * 1024, passes=2, element_bytes=64
        )
        assert miss_rate_under_lru(trace) > 0.95

    def test_fitting_scan_hits_on_second_pass(self):
        trace = sequential_scan(
            array_bytes=2 * 1024, passes=4, element_bytes=64
        )
        assert miss_rate_under_lru(trace) < 0.5


class TestStridedScan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            strided_scan(array_bytes=1024, stride_bytes=0)

    def test_stride_concentrates_sets(self):
        # Stride of num_sets*line_size folds everything into one set.
        geometry = CacheGeometry(num_sets=16, associativity=4)
        trace = strided_scan(
            array_bytes=64 * 1024, stride_bytes=16 * 64, passes=2
        )
        sets = {geometry.mapper.set_index(a) for a in trace.addresses}
        assert len(sets) == 1

    def test_conflict_misses_dominate(self):
        trace = strided_scan(
            array_bytes=64 * 1024, stride_bytes=16 * 64, passes=3
        )
        # 64 lines fighting over one 4-way set: full thrash.
        assert miss_rate_under_lru(trace) > 0.95


class TestPointerChase:
    def test_validation(self):
        with pytest.raises(ConfigError):
            pointer_chase(num_nodes=1, hops=10)

    def test_cycle_visits_every_node(self):
        trace = pointer_chase(num_nodes=32, hops=32)
        assert len({a for a in trace.addresses}) == 32

    def test_deterministic_per_seed(self):
        a = pointer_chase(num_nodes=16, hops=40, seed=3)
        b = pointer_chase(num_nodes=16, hops=40, seed=3)
        assert a.addresses == b.addresses

    def test_large_chase_defeats_small_cache(self):
        trace = pointer_chase(num_nodes=4096, hops=8000)
        assert miss_rate_under_lru(trace) > 0.9


class TestTiledMatrix:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiled_matrix_traversal(0, 8, tile=4)

    def test_tile_reuse_hits(self):
        # A tile that fits the cache is reused sweeps-1 times.
        trace = tiled_matrix_traversal(
            matrix_rows=16, matrix_cols=16, tile=8, sweeps_per_tile=4,
            element_bytes=64,
        )
        rate = miss_rate_under_lru(trace, num_sets=16, associativity=16)
        assert rate < 0.3

    def test_covers_whole_matrix(self):
        trace = tiled_matrix_traversal(
            matrix_rows=8, matrix_cols=8, tile=4, sweeps_per_tile=1,
            element_bytes=64,
        )
        assert len(set(trace.addresses)) == 64


class TestHotCold:
    def test_validation(self):
        with pytest.raises(ConfigError):
            hot_cold(hot_bytes=0, cold_bytes=1024, length=10)
        with pytest.raises(ConfigError):
            hot_cold(hot_bytes=64, cold_bytes=1024, length=10,
                     hot_fraction=1.0)

    def test_hot_region_dominates(self):
        trace = hot_cold(
            hot_bytes=4 * 64, cold_bytes=1024 * 64, length=5000,
            hot_fraction=0.9,
        )
        hot_limit = 4 * 64
        hot_accesses = sum(1 for a in trace.addresses if a < hot_limit)
        assert hot_accesses / len(trace) == pytest.approx(0.9, abs=0.03)

    def test_small_cache_still_serves_hot_set(self):
        trace = hot_cold(
            hot_bytes=8 * 64, cold_bytes=4096 * 64, length=6000,
            hot_fraction=0.9,
        )
        assert miss_rate_under_lru(trace) < 0.35
