"""Unit tests for the saturating-counter family."""

import pytest
from hypothesis import given, strategies as st

from repro.common.counters import (
    PolicySelector,
    SaturatingCounter,
    SignedSaturatingCounter,
)
from repro.common.errors import ConfigError


class TestSaturatingCounter:
    def test_initial_state(self):
        counter = SaturatingCounter(4)
        assert counter.value == 0
        assert counter.max_value == 15
        assert not counter.saturated
        assert counter.msb == 0

    def test_saturates_at_maximum(self):
        counter = SaturatingCounter(4)
        for _ in range(100):
            counter.increment()
        assert counter.value == 15
        assert counter.saturated

    def test_clamps_at_zero(self):
        counter = SaturatingCounter(4, initial=2)
        for _ in range(10):
            counter.decrement()
        assert counter.value == 0

    def test_msb_threshold_is_half_range(self):
        # STEM's giver test: MSB == 0 below 2^(k-1) (Section 4.4).
        counter = SaturatingCounter(4)
        for value in range(16):
            counter.reset(value)
            assert counter.msb == (1 if value >= 8 else 0)

    def test_increment_amount(self):
        counter = SaturatingCounter(4)
        counter.increment(amount=9)
        assert counter.value == 9
        counter.increment(amount=9)
        assert counter.value == 15

    def test_reset_bounds_checked(self):
        counter = SaturatingCounter(4)
        with pytest.raises(ConfigError):
            counter.reset(16)

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            SaturatingCounter(0)

    def test_rejects_bad_initial(self):
        with pytest.raises(ConfigError):
            SaturatingCounter(3, initial=8)

    @given(
        ops=st.lists(st.sampled_from(["inc", "dec"]), max_size=200),
        bits=st.integers(min_value=1, max_value=8),
    )
    def test_value_always_in_range(self, ops, bits):
        counter = SaturatingCounter(bits)
        for op in ops:
            if op == "inc":
                counter.increment()
            else:
                counter.decrement()
            assert 0 <= counter.value <= counter.max_value


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


class TestSignedSaturatingCounter:
    def test_clamps_both_directions(self):
        counter = SignedSaturatingCounter(limit=5)
        for _ in range(20):
            counter.increment()
        assert counter.value == 5
        for _ in range(40):
            counter.decrement()
        assert counter.value == -5

    def test_reset(self):
        counter = SignedSaturatingCounter(limit=8)
        counter.reset(-3)
        assert counter.value == -3
        with pytest.raises(ConfigError):
            counter.reset(9)

    def test_rejects_bad_limit(self):
        with pytest.raises(ConfigError):
            SignedSaturatingCounter(limit=0)

    def test_rejects_out_of_range_initial(self):
        with pytest.raises(ConfigError):
            SignedSaturatingCounter(limit=2, initial=3)
