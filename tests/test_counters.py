"""Unit tests for the saturating counters: STEM's SC_S/SC_T and PSEL."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.common.counters import PolicySelector
from repro.common.errors import ConfigError
from repro.core import StemCache, StemConfig


class TestSaturatingCounter:
    """k-bit counters clamped to [0, 2^k - 1], read through their MSB."""

    def test_initial_state(self):
        cache = StemCache(CacheGeometry(num_sets=4, associativity=4))
        assert cache.sc_s == [0] * 4
        assert cache.sc_t == [0] * 4
        # A clear MSB everywhere: every set starts a giver, none a taker.
        gauges = cache.metrics_gauges()
        assert (gauges["giver_fraction"], gauges["taker_fraction"]) == \
            (1.0, 0.0)

    def test_saturates_at_maximum(self):
        psel = PolicySelector(bits=4)
        for _ in range(100):
            psel.policy0_missed()
        assert psel.value == 15
        assert psel.winner() == 1

    def test_clamps_at_zero(self):
        psel = PolicySelector(bits=4)
        for _ in range(100):
            psel.policy1_missed()
        assert psel.value == 0
        assert psel.winner() == 0

    def test_msb_threshold_is_half_range(self):
        # STEM's giver test: MSB == 0 below 2^(k-1) (Section 4.4).
        cache = StemCache(CacheGeometry(num_sets=16, associativity=4))
        cache.sc_s[:] = range(16)
        gauges = cache.metrics_gauges()
        assert gauges["giver_fraction"] == 8 / 16
        assert gauges["taker_fraction"] == 1 / 16
        # PSEL's winner is the same bit.
        psel = PolicySelector(bits=4)
        for _ in range(8):
            psel.policy1_missed()
        for value in range(16):
            assert psel.value == value
            assert psel.winner() == (1 if value >= 8 else 0)
            psel.policy0_missed()

    def test_increment_amount(self):
        # Each leader-set miss moves PSEL by exactly one step.
        psel = PolicySelector(bits=4)
        psel.policy0_missed()
        assert psel.value == 9
        psel.policy1_missed()
        psel.policy1_missed()
        assert psel.value == 7

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            StemConfig(counter_bits=0)

    @given(
        ops=st.lists(st.booleans(), max_size=200),
        bits=st.integers(min_value=1, max_value=8),
    )
    def test_value_always_in_range(self, ops, bits):
        psel = PolicySelector(bits=bits)
        for policy0 in ops:
            if policy0:
                psel.policy0_missed()
            else:
                psel.policy1_missed()
            assert 0 <= psel.value <= (1 << bits) - 1
            assert psel.winner() == psel.value >> (bits - 1)


class TestPolicySelector:
    def test_starts_at_midpoint_favouring_policy1(self):
        psel = PolicySelector(bits=10)
        assert psel.value == 512
        assert psel.winner() == 1  # MSB of the midpoint is set

    def test_policy0_misses_push_toward_policy1(self):
        psel = PolicySelector(bits=4)
        for _ in range(8):
            psel.policy0_missed()
        assert psel.winner() == 1

    def test_policy1_misses_push_toward_policy0(self):
        psel = PolicySelector(bits=4)
        for _ in range(9):
            psel.policy1_missed()
        assert psel.winner() == 0

    @pytest.mark.parametrize("bits", [0, -3])
    def test_rejects_bad_width(self, bits):
        with pytest.raises(ConfigError):
            PolicySelector(bits=bits)

    def test_balanced_misses_hover_near_midpoint(self):
        psel = PolicySelector(bits=10)
        for _ in range(100):
            psel.policy0_missed()
            psel.policy1_missed()
        assert abs(psel.value - 512) <= 1
