"""splitmix64 hash family and key canonicalisation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.family import HashFamily, canonical_key, fnv1a64, splitmix64


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_bijective_on_sample(self):
        values = {splitmix64(x) for x in range(10_000)}
        assert len(values) == 10_000

    def test_64_bit_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) <= 2**64 - 1

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        flips = bin(splitmix64(0) ^ splitmix64(1)).count("1")
        assert 16 <= flips <= 48

    @given(st.integers(0, 2**64 - 1))
    def test_range_property(self, x):
        assert 0 <= splitmix64(x) <= 2**64 - 1


class TestFnv1a64:
    def test_known_empty(self):
        # FNV-1a offset basis.
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_distinct_inputs(self):
        assert fnv1a64(b"a") != fnv1a64(b"b")


class TestCanonicalKey:
    def test_int_passthrough(self):
        assert canonical_key(123) == 123

    def test_int_masked_to_64_bits(self):
        assert canonical_key(2**70 + 5) == canonical_key(5) == 5

    def test_empty_cell_key_folded_out(self):
        # 2**64 - 1 is the empty-cell key of checkpoints and the columnar
        # key column, so no canonical key may take it.
        assert canonical_key(-1) == canonical_key(2**64 - 1) == 2**64 - 2
        assert canonical_key(-2) == 2**64 - 2

    def test_str_stable(self):
        assert canonical_key("user-1") == canonical_key("user-1")

    def test_str_vs_bytes_equivalent(self):
        assert canonical_key("abc") == canonical_key(b"abc")

    def test_unsupported(self):
        with pytest.raises(TypeError):
            canonical_key([1, 2])


class TestHashFamily:
    def test_members_independent(self):
        family = HashFamily(seed=1)
        h0 = [family.hash(0, k) for k in range(100)]
        h1 = [family.hash(1, k) for k in range(100)]
        assert h0 != h1

    def test_same_seed_same_values(self):
        a, b = HashFamily(seed=5), HashFamily(seed=5)
        assert [a.hash(2, k) for k in range(50)] == [
            b.hash(2, k) for k in range(50)
        ]

    def test_different_seed_different_values(self):
        a, b = HashFamily(seed=5), HashFamily(seed=6)
        assert [a.hash(0, k) for k in range(50)] != [
            b.hash(0, k) for k in range(50)
        ]

    def test_bucket_range(self):
        family = HashFamily()
        for k in range(500):
            assert 0 <= family.bucket(0, k, 13) < 13

    def test_buckets_count(self):
        family = HashFamily()
        assert len(list(family.buckets(9, 100, 4))) == 4

    def test_buckets_match_bucket(self):
        family = HashFamily(seed=3)
        expected = [family.bucket(i, 7, 100) for i in range(3)]
        assert list(family.buckets(7, 100, 3)) == expected

    def test_sign_is_pm_one(self):
        family = HashFamily()
        signs = {family.sign(0, k) for k in range(100)}
        assert signs == {-1, 1}

    def test_member_callable_matches(self):
        family = HashFamily(seed=8)
        member = family.member(4)
        assert member(77) == family.hash(4, 77)

    def test_bucket_distribution_roughly_uniform(self):
        family = HashFamily(seed=11)
        counts = [0] * 16
        for k in range(4096):
            counts[family.bucket(0, k, 16)] += 1
        assert max(counts) < 2 * min(counts)
