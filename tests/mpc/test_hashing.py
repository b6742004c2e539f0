"""Tests for the seeded hash family."""

from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc.hashing import HashFamily, HashFunction, splitmix64


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_stays_64_bit(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64

    @given(st.integers(0, 2**64 - 1))
    def test_range_property(self, x):
        assert 0 <= splitmix64(x) < 2**64


class TestHashFunction:
    def test_range(self):
        h = HashFamily(0).function(0, 16)
        assert all(0 <= h(v) < 16 for v in range(1000))

    def test_deterministic_across_instances(self):
        h1 = HashFamily(9).function(2, 8)
        h2 = HashFamily(9).function(2, 8)
        assert [h1(v) for v in range(100)] == [h2(v) for v in range(100)]

    def test_indices_give_distinct_functions(self):
        fam = HashFamily(0)
        h0, h1 = fam.function(0, 64), fam.function(1, 64)
        assert [h0(v) for v in range(200)] != [h1(v) for v in range(200)]

    def test_seeds_give_distinct_functions(self):
        h0 = HashFamily(0).function(0, 64)
        h1 = HashFamily(1).function(0, 64)
        assert [h0(v) for v in range(200)] != [h1(v) for v in range(200)]

    def test_roughly_uniform(self):
        h = HashFamily(3).function(0, 10)
        counts = Counter(h(v) for v in range(10_000))
        assert len(counts) == 10
        assert max(counts.values()) < 2 * 10_000 / 10

    def test_non_integer_values(self):
        h = HashFamily(0).function(0, 8)
        assert 0 <= h("hello") < 8
        assert h(("a", 1)) == h(("a", 1))

    def test_bool_hashes_like_int(self):
        h = HashFamily(0).function(0, 8)
        assert h(True) == h(1)

    def test_equal_numbers_hash_alike(self):
        # Values that compare equal join with each other, so they must
        # land on the same server whatever their Python/numpy type.
        h = HashFamily(0).function(0, 1 << 20)
        assert len({h(1), h(1.0), h(True), h(np.int64(1)), h(np.float32(1.0)),
                    h(np.bool_(True)), h(np.uint8(1))}) == 1
        assert h(10**20) == h(1e20)
        assert h(0) == h(-0.0)
        assert h(0.5) == h(np.float64(0.5))
        assert h((1, "a")) == h((1.0, "a")) == h((np.int64(1), "a"))
        assert h((1, 0.5)) == h((1.0, np.float64(0.5)))
        assert h("a") == h(np.str_("a"))

    def test_negative_integers(self):
        h = HashFamily(0).function(0, 8)
        assert 0 <= h(-12345) < 8

    def test_invalid_buckets(self):
        import pytest

        with pytest.raises(ValueError):
            HashFunction(0, salt=1)


class TestIndexValidation:
    """Regression: the (index + 1) salt masked to 64 bits aliased
    index=-1 with seed-only hashing and index i with i + 2**64."""

    def test_negative_index_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(-1, 64)

    def test_huge_index_rejected(self):
        import pytest

        # 2**64 - 1 produced the same salt as index -1 before the fix.
        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(2**64 - 1, 64)
        with pytest.raises(ValueError, match="index"):
            HashFamily(7).function(2**64, 64)

    def test_largest_valid_index_accepted(self):
        h = HashFamily(7).function(2**64 - 2, 64)
        assert 0 <= h(123) < 64

    def test_distinct_indices_give_distinct_functions(self):
        """Golden: across a window of indices no two functions agree on a
        probe vector (independence across indices, per HyperCube)."""
        fam = HashFamily(seed=7)
        probes = list(range(32))
        seen = {}
        for index in (0, 1, 2, 3, 17, 255, 2**32, 2**64 - 2):
            signature = tuple(fam.function(index, 1 << 30)(v) for v in probes)
            assert signature not in seen.values(), f"index {index} collides"
            seen[index] = signature

    def test_valid_index_salts_unchanged(self):
        """The fix must not move any existing destination: the salt of a
        valid index is still splitmix64(splitmix64(seed) ^ (index + 1))."""
        from repro.mpc.hashing import splitmix64

        fam = HashFamily(seed=11)
        for index in (0, 1, 5):
            expected = splitmix64(splitmix64(11) ^ (index + 1))
            assert fam.function(index, 64).salt == expected
