import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from osmrank import combinatorics
from osmrank.combinatorics import (
    EXACT_TERMS,
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    format_partition,
    fubini,
    sample_uniform_ordered_partition,
)

from helpers import block_of, brute_force_ordered_partitions, brute_force_set_partitions
from oracles import (
    covers_universe,
    from_blocks,
    fubini_asymptotic,
    log_fubini_asymptotic,
    parse_partition,
    stirling2,
)


class TestOrderedPartition:
    def test_valid_construction(self):
        X = OrderedPartition(((0, 2), (1,)), 3)
        assert X.n_blocks == 2
        assert X.objects == (0, 1, 2)
        assert covers_universe(X)

    def test_from_blocks_sorts_and_infers_size(self):
        X = from_blocks([[2, 0], [1]])
        assert X.blocks == ((0, 2), (1,))
        assert X.n_objects == 3

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            OrderedPartition(((0,), ()), 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OrderedPartition(((0, 1), (1,)), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OrderedPartition(((0, 5),), 2)

    def test_partial_cover_allowed(self):
        X = OrderedPartition(((3, 7), (5,)), 10)
        assert not covers_universe(X)
        assert X.objects == (3, 5, 7)

    def test_block_of(self):
        X = OrderedPartition(((0, 2), (1,)), 3)
        assert block_of(X) == {0: 0, 2: 0, 1: 1}


class TestStirling2:
    def test_all_singletons(self):
        assert stirling2(3, 3) == 1

    def test_small_cases_against_brute_force(self):
        assert stirling2(3, 2) == brute_force_set_partitions(3, 2) == 3
        assert stirling2(4, 2) == brute_force_set_partitions(4, 2) == 7
        for n in range(1, 6):
            for t in range(1, n + 1):
                assert stirling2(n, t) == brute_force_set_partitions(n, t)

    def test_out_of_range_is_zero(self):
        assert stirling2(2, 5) == 0
        assert stirling2(0, 3) == 0
        assert stirling2(0, 0) == 1

    def test_against_explicit_formula(self):
        # S(n, t) = (1/t!) sum_j (-1)^j C(t, j) (t - j)^n
        for n in range(31):
            for t in range(n + 2):
                explicit = sum((-1) ** j * math.comb(t, j) * (t - j) ** n for j in range(t + 1))
                assert stirling2(n, t) == explicit // math.factorial(t)

    def test_large_n_needs_no_recursion(self):
        # S(n, 2) = 2^(n-1) - 1
        assert stirling2(1100, 2) == 2**1099 - 1


class TestFubini:
    def test_single_object(self):
        assert fubini(1) == 1

    def test_three_objects_identity(self):
        # s(3,1) 1! + s(3,2) 2! + s(3,3) 3! = 1 + 6 + 6
        assert fubini(3) == 13

    def test_against_brute_force(self):
        for n in range(1, 6):
            assert fubini(n) == len(brute_force_ordered_partitions(n))

    def test_against_binomial_recurrence(self):
        # a(n) = sum_k C(n,k) a(n-k), independent of the surjection-triangle route
        a = {0: 1}
        for n in range(1, 31):
            a[n] = sum(math.comb(n, k) * a[n - k] for k in range(1, n + 1))
            assert fubini(n) == a[n]

    def test_large_n_needs_no_recursion(self):
        # a catalog of ~1500 items: the count itself, compared in the log domain
        assert math.log(fubini(1500)) == pytest.approx(log_fubini_asymptotic(1500), rel=1e-12)

    def test_against_infinite_series(self):
        # third independent route: a(n) = sum_{k>=1} k^n / 2^(k+1)
        for n in range(1, 11):
            partial = sum(k**n / 2.0 ** (k + 1) for k in range(1, 400))
            assert partial == pytest.approx(fubini(n), rel=1e-12)


class TestFubiniAsymptotic:
    def test_single_object_value(self):
        assert fubini_asymptotic(1) == pytest.approx(1.0 / (2.0 * math.log(2.0) ** 2), rel=1e-12)
        assert fubini_asymptotic(1) == pytest.approx(1.0407, abs=5e-4)

    def test_ratio_near_one(self):
        assert 0.99 <= fubini(10) / fubini_asymptotic(10) <= 1.01
        assert 0.999 <= fubini(15) / fubini_asymptotic(15) <= 1.001

    def test_ratio_converges_monotonically(self):
        # The gap shrinks monotonically until the oscillating subleading
        # correction takes over around 1e-12 (and stays negligible after).
        gaps = [abs(fubini(n) / fubini_asymptotic(n) - 1.0) for n in range(5, 16)]
        for a, b in zip(gaps, gaps[1:]):
            assert a > b or a < 1e-12
        assert all(g < 1e-12 for g in gaps[8:])

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            fubini_asymptotic(300)
        assert np.isfinite(log_fubini_asymptotic(300))


class TestEnumeration:
    def test_single_object(self):
        assert [X.blocks for X in enumerate_ordered_partitions(1)] == [((0,),)]

    def test_two_objects(self):
        got = {X.blocks for X in enumerate_ordered_partitions(2)}
        assert got == {((0, 1),), ((0,), (1,)), ((1,), (0,))}

    def test_counts_and_uniqueness(self):
        for n in range(1, 7):
            seen = set()
            for X in enumerate_ordered_partitions(n):
                assert covers_universe(X)
                seen.add(X.blocks)
            assert len(seen) == fubini(n)

    def test_matches_brute_force_states(self):
        for n in range(1, 6):
            ours = {X.blocks for X in enumerate_ordered_partitions(n)}
            brute = {tuple(tuple(sorted(b)) for b in blocks)
                     for blocks in brute_force_ordered_partitions(n)}
            assert ours == brute

    def test_cap_refusal_mentions_size(self):
        with pytest.raises(EnumerationCapError) as info:
            list(enumerate_ordered_partitions(9))
        assert str(info.value) == "enumeration of n=9 refused: fubini(n) states exceed the bound 4782969"

    def test_bound_admits_n8_and_refuses_n9(self):
        # the bound the exact inference DP takes: 3^14 lies between fubini(8) and fubini(9)
        assert fubini(8) <= EXACT_TERMS == 3**14 < fubini(9)
        enumerate_ordered_partitions(8)  # no refusal; its states are listed lazily

    @pytest.mark.parametrize("n", [100, 1300, 10**8])
    def test_cap_refusal_builds_no_big_integer(self, n, monkeypatch):
        # fubini is called at n clamped to 64, so no count of thousands of digits is built
        asked = []

        def recorded(m):
            asked.append(m)
            return fubini(m)
        monkeypatch.setattr(combinatorics, "fubini", recorded)
        with pytest.raises(EnumerationCapError) as info:
            enumerate_ordered_partitions(n)
        assert str(info.value) == f"enumeration of n={n} refused: fubini(n) states exceed the bound {EXACT_TERMS}"
        assert asked == [64]


class TestUniformSampling:
    def test_single_object_deterministic(self):
        rng = random.Random(0)
        for _ in range(10):
            assert sample_uniform_ordered_partition(1, rng).blocks == ((0,),)

    def test_two_object_frequencies(self):
        rng = random.Random(1)
        draws = 100_000
        counts = Counter(sample_uniform_ordered_partition(2, rng).blocks for _ in range(draws))
        sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
        for blocks in [((0, 1),), ((0,), (1,)), ((1,), (0,))]:
            assert abs(counts[blocks] - draws / 3) < 3 * sigma

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chi_square_uniformity(self, n):
        rng = random.Random(100 + n)
        draws = 1_000_000
        counts = Counter(sample_uniform_ordered_partition(n, rng).blocks for _ in range(draws))
        states = [X.blocks for X in enumerate_ordered_partitions(n)]
        observed = [counts.get(s, 0) for s in states]
        _, p_value = chisquare(observed)
        assert p_value > 0.01

    def test_tv_distance_to_uniform_n4(self):
        rng = random.Random(7)
        draws = 1_000_000
        counts = Counter(sample_uniform_ordered_partition(4, rng).blocks for _ in range(draws))
        m = fubini(4)
        tv = 0.5 * sum(
            abs(counts.get(X.blocks, 0) / draws - 1 / m)
            for X in enumerate_ordered_partitions(4)
        )
        assert tv < 0.01


class TestTextFormat:
    def test_spec_example_decodes(self):
        X = parse_partition("2,0>1")
        assert X.blocks == ((0, 2), (1,))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            X = sample_uniform_ordered_partition(5, rng)
            assert parse_partition(format_partition(X), 5) == X
