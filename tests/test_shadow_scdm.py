"""Shadow sets and the Set-level Capacity Demand Monitor, per STEM set.

Each :class:`StemCache` set keeps its SCDM (Section 4.2) beside its
blocks: SC_S and SC_T in ``sc_s``/``sc_t``, and the shadow set as a
recency list (``shadow_order``, LRU first) plus ``shadow_members``.
These tests drive those lists through ``access()``, ``shadow_insert``
and safe mode.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, InvariantViolation
from repro.common.rng import Lfsr
from repro.core.config import StemConfig
from repro.core.stem_cache import StemCache


def make_cache(num_sets=2, associativity=4, rng=None, **config):
    geometry = CacheGeometry(num_sets=num_sets, associativity=associativity)
    return StemCache(geometry, config=StemConfig(**config), rng=rng)


def address(cache, set_index, tag):
    return cache.mapper.compose(tag, set_index)


def shadow(cache, set_index):
    """The set's signatures, LRU first, after checking both views agree."""
    order = cache.shadow_order[set_index]
    assert set(order) == cache.shadow_members[set_index]
    assert len(order) == len(cache.shadow_members[set_index])
    return order


class TestShadowSet:
    def test_rejects_bad_capacity(self):
        # A shadow set holds associativity signatures: none is no set.
        with pytest.raises(ConfigError):
            StemCache(CacheGeometry(num_sets=2, associativity=0))

    def test_insert_and_hit_invalidate(self):
        cache = make_cache()
        cache.shadow_insert(0, 0x3A, at_mru=True)
        assert shadow(cache, 0) == [0x3A]
        # The first of five blocks in a 4-way set leaves the chip, and
        # its signature is filed in the shadow.
        for tag in range(1, 6):
            cache.access(address(cache, 0, tag))
        [signature] = set(shadow(cache, 0)) - {0x3A}
        # Re-touching it is a shadow hit, which invalidates the entry:
        # signatures stay exclusive with resident blocks (Section 4.3).
        cache.access(address(cache, 0, 1))
        assert cache.stats.shadow_hits == 1
        assert signature not in shadow(cache, 0)
        assert 0x3A in shadow(cache, 0)

    def test_capacity_bounded_with_lru_eviction(self):
        cache = make_cache(associativity=2)
        for signature in (1, 2, 3):
            cache.shadow_insert(0, signature, at_mru=True)
        assert shadow(cache, 0) == [2, 3]  # the LRU entry was dropped

    def test_lru_position_insert_is_next_victim(self):
        # BIP-style shadow insertion: LRU-position entries get replaced
        # first, filtering a thrashing eviction stream.
        cache = make_cache(associativity=2)
        cache.shadow_insert(0, 1, at_mru=True)
        cache.shadow_insert(0, 2, at_mru=False)
        cache.shadow_insert(0, 3, at_mru=True)
        assert shadow(cache, 0) == [1, 3]

    def test_duplicate_insert_reranks(self):
        cache = make_cache()
        cache.shadow_insert(0, 1, at_mru=True)
        cache.shadow_insert(0, 2, at_mru=True)
        cache.shadow_insert(0, 1, at_mru=True)
        assert shadow(cache, 0) == [2, 1]


class TestSetMonitor:
    def test_shadow_hit_pulses_both_counters(self):
        cache = make_cache()
        for tag in (1, 2, 3, 4, 5, 1):  # tag 1 leaves, then returns
            cache.access(address(cache, 0, tag))
        assert cache.stats.shadow_hits == 1
        assert (cache.sc_s, cache.sc_t) == ([1, 0], [1, 0])

    def test_shadow_miss_leaves_counters(self):
        cache = make_cache()
        for tag in range(1, 7):
            cache.access(address(cache, 0, tag))
        assert cache.stats.shadow_hits == 0
        assert (cache.sc_s, cache.sc_t) == ([0, 0], [0, 0])

    def test_local_hit_always_decrements_sc_t(self):
        cache = make_cache()
        cache.sc_t[0] = 5
        cache.access(address(cache, 0, 1))  # a miss leaves SC_T alone
        assert cache.sc_t[0] == 5
        cache.access(address(cache, 0, 1))
        assert cache.sc_t[0] == 4
        for _ in range(10):
            cache.access(address(cache, 0, 1))
        assert cache.sc_t[0] == 0  # clamped

    def test_local_hit_decrements_sc_s_at_one_in_2n(self):
        cache = make_cache(rng=Lfsr(seed=0x1357), spatial_ratio_bits=3)
        cache.sc_s[0] = 15
        cache.access(address(cache, 0, 1))  # a cold miss draws nothing
        hits = 80
        for _ in range(hits):
            cache.access(address(cache, 0, 1))
        # One LFSR draw per hit; SC_S drops on each 1-in-8 success.
        reference = Lfsr(seed=0x1357)
        decrements = sum(reference.one_in(3) for _ in range(hits))
        assert 0 < decrements < 15
        assert cache.sc_s[0] == 15 - decrements
        assert cache.rng.state == reference.state

    def test_taker_and_giver_thresholds(self):
        cache = make_cache()
        cache.sc_s[:] = [7, 8]  # MSB clear: a giver; MSB set: neither
        gauges = cache.metrics_gauges()
        assert (gauges["giver_fraction"], gauges["taker_fraction"]) == \
            (0.5, 0.0)
        cache.sc_s[:] = [15, 14]  # saturated: a taker
        gauges = cache.metrics_gauges()
        assert (gauges["giver_fraction"], gauges["taker_fraction"]) == \
            (0.0, 0.5)
        # A taker's first eviction couples it with a posted giver.
        cache.sc_s[:] = [15, 0]
        cache.access(address(cache, 1, 1))
        assert cache.heap.entries() == {1: 0}
        for tag in range(1, 6):
            cache.access(address(cache, 0, tag))
        assert (cache.role_of(0), cache.role_of(1)) == ("taker", "giver")
        assert cache.stats.spills == 1

    def test_policy_swap_protocol(self):
        cache = make_cache()
        cache.sc_t[0] = 15
        cache.access(address(cache, 0, 1))
        # Saturated SC_T: the shadow's policy wins, SC_T restarts at 0.
        assert cache.policy_mode_of(0) == "BIP"
        assert cache.sc_t[0] == 0
        assert cache.stats.policy_swaps == 1

    def test_saturation_exposed_for_heap_ordering(self):
        cache = make_cache()
        cache.sc_s[1] = 3
        cache.access(address(cache, 1, 1))
        assert cache.heap.entries() == {1: 3}

    def test_safe_mode_zeroes_the_sets_scdm(self):
        cache = make_cache(safe_mode=True, safe_mode_check_interval=1)
        cache.sc_s[0] = 9
        cache.sc_t[0] = 5
        cache.shadow_insert(0, 7, at_mru=True)
        cache.association[0] = 1  # a one-sided pairing
        cache.access(address(cache, 1, 1))  # the sweep finds and heals it
        assert 0 in cache.safe_mode_sets()
        assert (cache.sc_s[0], cache.sc_t[0]) == (0, 0)
        assert shadow(cache, 0) == []
        cache.check_invariants()

    def test_counters_out_of_range_fail_invariants(self):
        cache = make_cache()
        cache.check_invariants()
        cache.sc_s[1] = 16
        with pytest.raises(InvariantViolation, match="SC_S 16"):
            cache.check_invariants()
        cache.sc_s[1] = 0
        cache.sc_t[0] = -1
        with pytest.raises(InvariantViolation, match="SC_T -1"):
            cache.check_invariants()

    def test_shadow_order_and_members_must_agree(self):
        cache = make_cache()
        cache.shadow_insert(0, 5, at_mru=True)
        cache.check_invariants()
        cache.shadow_members[0].add(6)
        with pytest.raises(InvariantViolation, match="shadow order"):
            cache.check_invariants()
        cache.shadow_members[0].discard(6)
        cache.shadow_order[0].append(5)  # a duplicate
        with pytest.raises(InvariantViolation, match="shadow order"):
            cache.check_invariants()
