"""Tests for the H3 universal hash family."""

import pytest
from hypothesis import given, strategies as st

from repro.common.h3 import H3Hash, make_h3_family


class TestH3Hash:
    def test_deterministic_across_instances(self):
        a = H3Hash(8, seed=3)
        b = H3Hash(8, seed=3)
        for key in (0, 1, 7, 12345, (1 << 63) - 1):
            assert a(key) == b(key)

    def test_different_seeds_differ_somewhere(self):
        a = H3Hash(8, seed=1)
        b = H3Hash(8, seed=2)
        assert any(a(key) != b(key) for key in range(64))

    def test_zero_hashes_to_zero(self):
        # H3 is linear: the empty XOR of masks is 0.
        assert H3Hash(10, seed=5)(0) == 0

    def test_linearity(self):
        h = H3Hash(8, seed=9)
        for a, b in ((1, 2), (5, 8), (0b1010, 0b0101)):
            # disjoint bit patterns: h(a | b) == h(a) ^ h(b)
            assert a & b == 0
            assert h(a | b) == h(a) ^ h(b)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_range(self, key):
        h = H3Hash(6, seed=4)
        assert 0 <= h(key) < 64

    def test_truncates_wide_keys(self):
        h = H3Hash(8, key_bits=16, seed=1)
        assert h(0x1_0000 + 5) == h(5)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            H3Hash(8)(-1)

    @pytest.mark.parametrize("out_bits", [0, -3])
    def test_bad_out_bits(self, out_bits):
        with pytest.raises(ValueError):
            H3Hash(out_bits)

    def test_bad_key_bits(self):
        with pytest.raises(ValueError):
            H3Hash(8, key_bits=0)

    def test_range_size(self):
        assert H3Hash(6).range_size == 64

    def test_rough_uniformity(self):
        h = H3Hash(4, seed=7)
        counts = [0] * 16
        for key in range(4096):
            counts[h(key)] += 1
        # Expect 256 per bucket; allow generous slack.
        assert min(counts) > 128
        assert max(counts) < 512


class TestMakeFamily:
    def test_count_and_independence(self):
        family = make_h3_family(3, 8, seed=2)
        assert len(family) == 3
        keys = range(200)
        for i in range(3):
            for j in range(i + 1, 3):
                assert any(family[i](k) != family[j](k) for k in keys)

    def test_deterministic(self):
        f1 = make_h3_family(2, 6, seed=11)
        f2 = make_h3_family(2, 6, seed=11)
        assert all(f1[i](k) == f2[i](k) for i in range(2) for k in range(100))

    def test_shared_per_parameters(self):
        assert make_h3_family(2, 6, seed=11) is make_h3_family(2, 6, seed=11)
        assert make_h3_family(2, 6, seed=11) is not make_h3_family(2, 6,
                                                                   seed=12)
        assert make_h3_family(2, 6, seed=11) is not make_h3_family(
            2, 6, key_bits=32, seed=11)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            make_h3_family(0, 8)
