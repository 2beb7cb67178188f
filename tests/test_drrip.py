"""Tests for the DRRIP extension policy."""

import pytest

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import Lfsr
from repro.policies.drrip import DrripPolicy

from tests.conftest import cyclic_addresses


def drive_uniform_cyclic(working_set, num_sets=64, assoc=4, rounds=300):
    geometry = CacheGeometry(num_sets=num_sets, associativity=assoc)
    cache = SetAssociativeCache(geometry, DrripPolicy(), rng=Lfsr())
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


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DrripPolicy(rrpv_bits=0)
        with pytest.raises(ConfigError):
            DrripPolicy(leaders_per_policy=0)

    @pytest.mark.parametrize("bits", [-1, -3])
    def test_rejects_negative_throttle(self, bits):
        # As for BIP and DIP: a negative width would make every BRRIP
        # fill take SRRIP's insertion.
        with pytest.raises(ConfigError, match="throttle_bits"):
            DrripPolicy(throttle_bits=bits)

    def test_zero_throttle_is_accepted(self):
        assert DrripPolicy(throttle_bits=0).throttle_bits == 0

    def test_leader_roles_assigned(self):
        policy = DrripPolicy()
        policy.attach(num_sets=256, associativity=8, rng=Lfsr())
        roles = {policy.role_of(s) for s in range(256)}
        assert roles == {"srrip-leader", "brrip-leader", "follower"}


class TestInsertion:
    def test_srrip_leader_inserts_long(self):
        policy = DrripPolicy()
        policy.attach(num_sets=64, associativity=4, rng=Lfsr())
        leader = next(
            s for s in range(64) if policy.role_of(s) == "srrip-leader"
        )
        policy.on_fill(leader, 0)
        assert policy._rrpv[leader][0] == policy.max_rrpv - 1

    def test_brrip_leader_mostly_inserts_distant(self):
        policy = DrripPolicy()
        policy.attach(num_sets=64, associativity=4, rng=Lfsr())
        leader = next(
            s for s in range(64) if policy.role_of(s) == "brrip-leader"
        )
        distant = 0
        for _ in range(128):
            policy.on_fill(leader, 0)
            distant += policy._rrpv[leader][0] == policy.max_rrpv
        assert distant > 100  # 31/32 of fills are "distant"

    def test_hit_promotes(self):
        policy = DrripPolicy()
        policy.attach(num_sets=4, associativity=2, rng=Lfsr())
        policy.on_fill(0, 1)
        policy.on_hit(0, 1)
        assert policy._rrpv[0][1] == 0


class TestAdaptivity:
    def test_resists_thrash_better_than_plain_srrip_floor(self):
        cache = drive_uniform_cyclic(working_set=8)
        # Pure LRU-like behaviour would thrash at 1.0; the BRRIP side
        # must rescue a substantial fraction of hits.
        assert cache.stats.miss_rate < 0.95

    def test_perfect_on_fitting_working_set(self):
        cache = drive_uniform_cyclic(working_set=4)
        assert cache.stats.miss_rate < 0.05

    def test_psel_trains_on_leaders_only(self):
        policy = DrripPolicy()
        policy.attach(num_sets=64, associativity=4, rng=Lfsr())
        follower = next(
            s for s in range(64) if policy.role_of(s) == "follower"
        )
        before = policy.psel.value
        policy.on_miss(follower)
        assert policy.psel.value == before
