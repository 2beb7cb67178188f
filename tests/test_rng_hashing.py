"""Unit tests for the LFSR, SplitMix and the H3 hash family."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.common.hashing import H3Hash, fold_xor, parity
from repro.common.rng import Lfsr, SplitMix


class TestLfsr:
    def test_rejects_zero_seed(self):
        with pytest.raises(ConfigError):
            Lfsr(seed=0)

    def test_deterministic_for_same_seed(self):
        a = Lfsr(seed=0x1234)
        b = Lfsr(seed=0x1234)
        assert [a.next_bits(8) for _ in range(32)] == [
            b.next_bits(8) for _ in range(32)
        ]

    def test_full_period(self):
        # A maximal-length 16-bit LFSR revisits its seed after 2^16 - 1.
        lfsr = Lfsr(seed=0xACE1)
        seen_seed_again = 0
        for step in range(1, (1 << 16)):
            lfsr.next_bit()
            if lfsr.state == 0xACE1:
                seen_seed_again = step
                break
        assert seen_seed_again == (1 << 16) - 1

    def test_one_in_zero_power_is_always_true(self):
        lfsr = Lfsr()
        assert all(lfsr.one_in(0) for _ in range(10))

    def test_one_in_rate_approximates_probability(self):
        lfsr = Lfsr(seed=0xBEEF)
        trials = 20_000
        hits = sum(1 for _ in range(trials) if lfsr.one_in(3))
        assert abs(hits / trials - 1 / 8) < 0.02

    def test_next_bits_rejects_nonpositive_width(self):
        with pytest.raises(ConfigError):
            Lfsr().next_bits(0)

    def test_jump_tables_match_bit_stepping(self, monkeypatch):
        # Every width up to the register's 16 bits, and one composed
        # width, against w next_bit() steps from every non-zero state.
        monkeypatch.setattr(Lfsr, "_JUMP_TABLES", {})
        monkeypatch.setattr(Lfsr, "_CYCLE", [])
        widths = list(range(1, 17)) + [20]
        expected = {
            width: ([0] * 0x10000, [0] * 0x10000) for width in widths
        }
        for start in range(1, 0x10000):
            lfsr = Lfsr(seed=start)
            value = 0
            for width in range(1, max(widths) + 1):
                value = (value << 1) | lfsr.next_bit()
                if width in expected:
                    values, states = expected[width]
                    values[start] = value
                    states[start] = lfsr.state
        for width in widths:
            values, states = Lfsr.jump_table(width)
            assert states[0] == 0 and values[0] == 0
            assert (values, states) == expected[width], width


class TestSplitMix:
    def test_deterministic(self):
        assert [SplitMix(1).next_u64() for _ in range(4)] == [
            SplitMix(1).next_u64() for _ in range(4)
        ]

    def test_random_in_unit_interval(self):
        rng = SplitMix(5)
        for _ in range(1000):
            value = rng.random()
            assert 0.0 <= value < 1.0

    def test_randint_bounds_inclusive(self):
        rng = SplitMix(9)
        values = {rng.randint(3, 6) for _ in range(500)}
        assert values == {3, 4, 5, 6}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ConfigError):
            SplitMix().randint(5, 4)

    def test_choice_uniformish(self):
        rng = SplitMix(11)
        counts = {"a": 0, "b": 0}
        for _ in range(2000):
            counts[rng.choice(["a", "b"])] += 1
        assert abs(counts["a"] - counts["b"]) < 300

    def test_choice_rejects_empty(self):
        with pytest.raises(ConfigError):
            SplitMix().choice([])

    def test_shuffle_is_permutation(self):
        rng = SplitMix(13)
        items = list(range(50))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # vanishingly unlikely to be identity


class TestParityAndFold:
    def test_parity_known_values(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b1011) == 1
        assert parity(0b1111) == 0

    @given(value=st.integers(min_value=0, max_value=(1 << 60) - 1))
    def test_parity_matches_bit_count(self, value):
        assert parity(value) == bin(value).count("1") % 2

    def test_fold_xor_width(self):
        for value in range(0, 1 << 12, 37):
            assert 0 <= fold_xor(value, 5) < 32

    def test_fold_xor_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            fold_xor(10, 0)


class TestH3Hash:
    def test_output_width(self):
        h = H3Hash(in_bits=27, out_bits=10)
        for value in range(0, 1 << 16, 97):
            assert 0 <= h(value) < 1024

    def test_deterministic_per_seed(self):
        a = H3Hash(27, 10, seed=3)
        b = H3Hash(27, 10, seed=3)
        assert all(a(v) == b(v) for v in range(200))

    def test_different_seeds_differ(self):
        a = H3Hash(27, 10, seed=3)
        b = H3Hash(27, 10, seed=4)
        assert any(a(v) != b(v) for v in range(200))

    @given(
        x=st.integers(min_value=0, max_value=(1 << 27) - 1),
        y=st.integers(min_value=0, max_value=(1 << 27) - 1),
    )
    def test_h3_is_gf2_linear(self, x, y):
        # The defining property of the H3 family (Ramakrishna et al.):
        # each output bit is a GF(2) inner product, so h(x^y)=h(x)^h(y).
        h = H3Hash(27, 10, seed=0xACE1)
        assert h(x ^ y) == h(x) ^ h(y)

    def test_collision_rate_close_to_ideal(self):
        h = H3Hash(27, 12)
        seen = {}
        collisions = 0
        for value in range(4096):
            signature = h(value)
            collisions += signature in seen
            seen[signature] = value
        # Birthday regime: expect ~ n^2 / 2m collisions; allow slack.
        assert collisions < 4096 * 4096 / (2 * 4096) * 3

    def test_better_distribution_than_fold_xor_on_mirrored_tags(self):
        # Mirrored-byte patterns collapse under XOR folding (the two
        # byte lanes cancel); the H3 family keeps them spread.
        h = H3Hash(20, 8)
        tags = [x | (x << 8) for x in range(256)]
        h3_values = {h(tag) for tag in tags}
        fold_values = {fold_xor(tag, 8) for tag in tags}
        assert len(fold_values) == 1  # total collapse: x ^ x == 0
        assert len(h3_values) > 100

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            H3Hash(0, 4)
        with pytest.raises(ConfigError):
            H3Hash(8, 0)

    def test_collision_probability(self):
        assert H3Hash(27, 10).collision_probability() == pytest.approx(
            1 / 1024
        )
