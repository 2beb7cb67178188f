"""Tests for the PeLIFO fill-stack policy."""

import pytest

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import Lfsr
from repro.policies.pelifo import PeLifoPolicy

from tests.conftest import cyclic_addresses, random_addresses


class TestConstruction:
    def test_rejects_bad_theta(self):
        with pytest.raises(ConfigError):
            PeLifoPolicy(theta=0.0)
        with pytest.raises(ConfigError):
            PeLifoPolicy(theta=1.0)

    def test_rejects_bad_epoch(self):
        with pytest.raises(ConfigError):
            PeLifoPolicy(epoch_length=0)

    @pytest.mark.parametrize("leaders", [0, -1, -16])
    def test_rejects_bad_leader_count(self, leaders):
        with pytest.raises(ConfigError):
            PeLifoPolicy(leaders_per_mode=leaders)

    def test_three_leader_groups_present(self):
        policy = PeLifoPolicy()
        policy.attach(num_sets=64, associativity=8, rng=Lfsr())
        roles = {role for role in policy._roles if role != -1}
        assert roles == {0, 1, 2}

    def test_followers_dominate(self):
        policy = PeLifoPolicy()
        policy.attach(num_sets=2048, associativity=16, rng=Lfsr())
        followers = sum(1 for role in policy._roles if role == -1)
        assert followers > 2048 * 0.9


class TestFillStackMechanics:
    def test_fill_goes_to_top(self):
        policy = PeLifoPolicy()
        policy.attach(1, 4, Lfsr())
        for way in range(3):
            policy.on_fill(0, way)
        assert policy._fill_stack[0] == [0, 1, 2]

    def test_hit_does_not_reorder_fill_stack(self):
        policy = PeLifoPolicy()
        policy.attach(1, 4, Lfsr())
        for way in range(3):
            policy.on_fill(0, way)
        policy.on_hit(0, 0)
        assert policy._fill_stack[0] == [0, 1, 2]

    def test_hit_records_depth_histogram(self):
        policy = PeLifoPolicy()
        policy.attach(1, 4, Lfsr())
        for way in range(4):
            policy.on_fill(0, way)
        policy.on_hit(0, 0)  # deepest block: depth 3
        assert policy._depth_hits[3] == 1

    def test_invalidate_removes_from_both_structures(self):
        policy = PeLifoPolicy()
        policy.attach(1, 4, Lfsr())
        policy.on_fill(0, 0)
        policy.on_fill(0, 1)
        policy.on_invalidate(0, 0)
        assert 0 not in policy._fill_stack[0]
        assert 0 not in policy._recency[0]

    @pytest.mark.parametrize("batched", [False, True])
    def test_full_set_with_empty_fill_stack_raises(self, batched):
        geometry = CacheGeometry(num_sets=4, associativity=2)
        cache = SetAssociativeCache(geometry, PeLifoPolicy(), rng=Lfsr())
        addresses = [geometry.mapper.compose(tag, 0) for tag in range(3)]
        for address in addresses[:2]:
            cache.access(address)
        cache.policy._fill_stack[0].clear()
        with pytest.raises(SimulationError, match="empty fill stack"):
            if batched:
                set_indices, tags = zip(
                    *(geometry.mapper.split(address) for address in addresses)
                )
                cache.access_batch(addresses, set_indices, tags, None, 2, 3)
            else:
                cache.access(addresses[2])


class TestAdaptivity:
    def _drive(self, working_set, num_sets=64, assoc=4, rounds=200):
        geometry = CacheGeometry(num_sets=num_sets, associativity=assoc)
        cache = SetAssociativeCache(
            geometry, PeLifoPolicy(epoch_length=512), rng=Lfsr()
        )
        streams = [
            cyclic_addresses(geometry, s, working_set, rounds)
            for s in range(num_sets)
        ]
        interleaved = [a for accesses in zip(*streams) for a in accesses]
        warm = len(interleaved) // 2
        for address in interleaved[:warm]:
            cache.access(address)
        cache.reset_stats()
        for address in interleaved[warm:]:
            cache.access(address)
        return cache

    def test_beats_lru_on_thrash(self):
        cache = self._drive(working_set=8)
        # Pure LRU would thrash at 1.0; LIFO-style pinning must help.
        assert cache.stats.miss_rate < 0.9

    def test_perfect_on_fitting_working_set(self):
        cache = self._drive(working_set=4)
        assert cache.stats.miss_rate < 0.05

    def test_mode_election_runs(self):
        policy = PeLifoPolicy(epoch_length=64)
        policy.attach(num_sets=16, associativity=4, rng=Lfsr())
        geometry = CacheGeometry(num_sets=16, associativity=4)
        cache = SetAssociativeCache(geometry, policy, rng=Lfsr())
        for address in random_addresses(geometry, 2000, tag_space=64):
            cache.access(address)
        assert policy.current_best_mode() in ("LRU", "LIFO", "LEARNED")

    def test_learned_depth_bounded(self):
        policy = PeLifoPolicy()
        policy.attach(1, 8, Lfsr())
        assert 0 <= policy._learned_depth() < 8
        policy._depth_hits = [100, 50, 10, 0, 0, 0, 0, 0]
        assert 0 <= policy._learned_depth() < 8
