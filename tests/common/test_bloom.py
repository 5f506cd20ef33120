"""Tests for Bloom-filter signatures (no false negatives is load-bearing:
the recorder must never miss a conflicting coherence transaction)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bloom import BloomSignature
from repro.common.h3 import H3Hash


class TestBloomBasics:
    def test_empty(self):
        sig = BloomSignature()
        assert sig.is_empty
        assert not sig.may_contain(0x1234)
        assert sig.set_bits == 0

    def test_insert_and_query(self):
        sig = BloomSignature()
        sig.insert(42)
        assert sig.may_contain(42)
        assert not sig.is_empty
        assert sig.set_bits == sig.banks  # one bit in every bank

    def test_clear(self):
        sig = BloomSignature()
        for addr in range(10):
            sig.insert(addr)
        sig.clear()
        assert sig.is_empty
        assert sig.set_bits == 0
        assert not any(sig.may_contain(addr) for addr in range(10))

    def test_size_bits_matches_paper(self):
        # Table 1: each signature is 4 x 256-bit Bloom filters.
        assert BloomSignature(4, 256).size_bits == 1024

    def test_occupancy_monotonic(self):
        sig = BloomSignature(2, 64)
        previous = 0.0
        for addr in range(0, 300, 7):
            sig.insert(addr)
            occupancy = sig.occupancy()
            assert occupancy >= previous
            previous = occupancy
        assert 0.0 < sig.occupancy() <= 1.0

    @pytest.mark.parametrize("banks,bits", [(0, 256), (4, 0), (4, 100)])
    def test_bad_config(self, banks, bits):
        with pytest.raises(ValueError):
            BloomSignature(banks, bits)

    def test_false_positive_rate_is_sane(self):
        sig = BloomSignature(4, 256, seed=3)
        inserted = list(range(0, 640, 13))[:20]
        for addr in inserted:
            sig.insert(addr)
        probes = [addr for addr in range(100_000, 101_000)
                  if addr not in inserted]
        false_positives = sum(sig.may_contain(addr) for addr in probes)
        # 20 elements in a 4x256 filter: expected FP rate well under 2%.
        assert false_positives < len(probes) * 0.02


class TestSharedHashes:
    def test_same_seed_signatures_share_hashes_and_masks(self):
        a = BloomSignature(4, 256, seed=5)
        b = BloomSignature(4, 256, seed=5)
        assert a._hashes is b._hashes
        # The masks are those of freshly built (unshared) hash functions:
        # bank ``i`` uses derived seed ``seed * 7919 + i + 1``.
        fresh = [H3Hash(8, seed=5 * 7919 + bank + 1) for bank in range(4)]
        for address in (0, 1, 0x1234, 1 << 40):
            expected = 0
            for bank, h in enumerate(fresh):
                expected |= 1 << (bank * 256 + h(address))
            assert a.mask_for(address) == b.mask_for(address) == expected

    def test_shared_hashes_keep_signatures_independent(self):
        a = BloomSignature(4, 256, seed=5)
        b = BloomSignature(4, 256, seed=5)
        a.insert(42)
        assert a.may_contain(42)
        assert b.is_empty


class TestBloomProperties:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 48) - 1),
                    min_size=1, max_size=200))
    def test_no_false_negatives(self, addresses):
        sig = BloomSignature(4, 256, seed=1)
        for addr in addresses:
            sig.insert(addr)
        assert all(sig.may_contain(addr) for addr in addresses)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 32), max_size=50),
           st.integers(min_value=0, max_value=1 << 32))
    def test_definite_negative_is_truthful(self, addresses, probe):
        sig = BloomSignature(2, 128, seed=2)
        for addr in addresses:
            sig.insert(addr)
        if probe in addresses:
            assert sig.may_contain(probe)
