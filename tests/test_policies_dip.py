"""Tests for DIP's set dueling."""

import pytest

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import Lfsr
from repro.policies.dip import DipPolicy

from tests.conftest import cyclic_addresses


class TestLeaderLayout:
    def test_roles_assigned(self):
        policy = DipPolicy()
        policy.attach(num_sets=256, associativity=8, rng=Lfsr())
        roles = {policy.role_of(s) for s in range(256)}
        assert roles == {"lru-leader", "bip-leader", "follower"}

    def test_leader_population_is_sparse(self):
        policy = DipPolicy()
        policy.attach(num_sets=2048, associativity=16, rng=Lfsr())
        leaders = sum(
            1 for s in range(2048) if policy.role_of(s) != "follower"
        )
        # DIP dedicates 32 sets per policy at this scale.
        assert leaders == 64

    def test_tiny_cache_has_both_leader_kinds(self):
        policy = DipPolicy()
        policy.attach(num_sets=4, associativity=2, rng=Lfsr())
        roles = [policy.role_of(s) for s in range(4)]
        assert "lru-leader" in roles
        assert "bip-leader" in roles

    def test_rejects_bad_leader_count(self):
        with pytest.raises(ConfigError):
            DipPolicy(leaders_per_policy=0)

    @pytest.mark.parametrize("bits", [0, -1])
    def test_rejects_bad_psel_width(self, bits):
        with pytest.raises(ConfigError):
            DipPolicy(psel_bits=bits)

    @pytest.mark.parametrize("bits", [-1, -3])
    def test_rejects_negative_throttle(self, bits):
        # Lfsr.one_in(power <= 0) is always True, so a negative width
        # would put every BIP-mode fill at MRU, as under LRU.
        with pytest.raises(ConfigError, match="throttle_bits"):
            DipPolicy(throttle_bits=bits)

    def test_zero_throttle_is_accepted(self):
        assert DipPolicy(throttle_bits=0).throttle_bits == 0


class TestDueling:
    def test_psel_moves_on_leader_misses_only(self):
        policy = DipPolicy()
        policy.attach(num_sets=64, associativity=4, rng=Lfsr())
        follower = next(
            s for s in range(64) if policy.role_of(s) == "follower"
        )
        before = policy.psel.value
        policy.on_miss(follower)
        assert policy.psel.value == before

        lru_leader = next(
            s for s in range(64) if policy.role_of(s) == "lru-leader"
        )
        policy.on_miss(lru_leader)
        assert policy.psel.value == before + 1

    def test_followers_adopt_bip_under_thrash(self):
        # A uniformly thrashing cache: BIP leaders miss less, PSEL picks
        # BIP and the overall miss rate lands well below LRU's 100%.
        geometry = CacheGeometry(num_sets=64, associativity=4)
        cache = SetAssociativeCache(geometry, DipPolicy(), rng=Lfsr())
        streams = [
            cyclic_addresses(geometry, s, working_set=8, length=400)
            for s in range(64)
        ]
        interleaved = [
            address for accesses in zip(*streams) for address in accesses
        ]
        warm = len(interleaved) // 2
        for address in interleaved[:warm]:
            cache.access(address)
        cache.reset_stats()
        for address in interleaved[warm:]:
            cache.access(address)
        # LRU would be 1.0; BIP's analytic value is 1 - 3/8 = 0.625.
        assert cache.stats.miss_rate < 0.80

    def test_followers_keep_lru_on_friendly_load(self):
        geometry = CacheGeometry(num_sets=64, associativity=4)
        cache = SetAssociativeCache(geometry, DipPolicy(), rng=Lfsr())
        streams = [
            cyclic_addresses(geometry, s, working_set=4, length=200)
            for s in range(64)
        ]
        interleaved = [
            address for accesses in zip(*streams) for address in accesses
        ]
        for address in interleaved:
            cache.access(address)
        cache.reset_stats()
        for address in interleaved:
            cache.access(address)
        assert cache.stats.miss_rate == 0.0
