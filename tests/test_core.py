import math
import random
import tracemalloc

import numpy as np
import pytest

from osmrank.combinatorics import OrderedPartition, enumerate_ordered_partitions
from osmrank.core import (
    LogLinearParams,
    MatrixPairModel,
    WorthPairModel,
    from_graded_ratings,
    log_ratio_merge,
    log_ratio_split,
    log_weight,
    loglinear_pair_model,
    uniform_pair_model,
    worth_features,
)

from helpers import random_matrix_model


def P(*blocks):
    return OrderedPartition.from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


class TestLogWeight:
    def test_uniform_model_gives_zero(self):
        m = uniform_pair_model(4)
        for X in enumerate_ordered_partitions(4):
            assert log_weight(X, m) == 0.0

    def test_single_ordered_pair(self):
        order = np.zeros((2, 2))
        order[0, 1] = 0.7
        m = MatrixPairModel(np.zeros((2, 2)), order)
        assert log_weight(P([0], [1]), m) == pytest.approx(0.7)
        assert log_weight(P([1], [0]), m) == pytest.approx(0.0)

    def test_hand_expansion(self):
        m = random_matrix_model(3, seed=5)
        X = P([0, 1], [2])
        expected = m.tie[0, 1] + m.order[0, 2] + m.order[1, 2]
        assert log_weight(X, m) == pytest.approx(expected, abs=1e-12)

    def test_mismatched_size_rejected(self):
        with pytest.raises(ValueError):
            log_weight(P([0], [1]), uniform_pair_model(5))

    def test_invariant_under_block_listing_order(self):
        m = random_matrix_model(5, seed=9)
        a = OrderedPartition.from_blocks([[3, 1, 0], [4, 2]], 5)
        b = OrderedPartition.from_blocks([[0, 1, 3], [2, 4]], 5)
        assert a == b
        assert log_weight(a, m) == log_weight(b, m)

    def test_worth_model_matches_pair_sum(self):
        rng = np.random.default_rng(11)
        w = WorthPairModel(0.3, rng.normal(size=5))
        tie = np.array([[w.log_tie(i, j) if i != j else 0.0 for j in range(5)] for i in range(5)])
        order = np.array([[w.log_order(i, j) if i != j else 0.0 for j in range(5)] for i in range(5)])
        mat = MatrixPairModel(tie, order)
        r = random.Random(2)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        for _ in range(20):
            X = sample_uniform_ordered_partition(5, r)
            assert log_weight(X, w) == pytest.approx(log_weight(X, mat), abs=1e-12)

    def test_worth_sums_are_left_folds(self):
        # 1e16 + 1.0 rounds back to 1e16, so the left fold of these worths is 0.0;
        # a compensated sum (the builtin float sum from Python 3.12) gives 1.0
        worths = [1e16, 1.0, -1e16]
        assert math.fsum(worths) == 1.0
        ratio = WorthPairModel(0.0, np.array(worths + [0.0])).split_ratio(range(4))
        assert ratio([0, 1, 2], [3]) == 0.0
        assert ratio([3], [0, 1, 2]) == 0.0
        # coefficients 3, 2, 1, 0 in block order: terms 3e16, 2.0, -3e16, 0.0
        m = WorthPairModel(0.0, np.array([1e16, 1.0, -3e16, 0.0]))
        assert math.fsum([3e16, 2.0, -3e16]) == 2.0
        assert log_weight(P((0,), (1,), (2,), (3,)), m) == 0.0

    def test_probabilities_sum_to_one(self):
        from scipy.special import logsumexp

        for n in range(2, 6):
            m = random_matrix_model(n, seed=n)
            logs = [log_weight(X, m) for X in enumerate_ordered_partitions(n)]
            log_z = logsumexp(logs)
            total = sum(math.exp(lw - log_z) for lw in logs)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestWorthFeatures:
    def test_matches_definition(self):
        X = P([0, 2], [1], [3, 4])
        pairs, items, c = worth_features(X)
        assert pairs == 2  # (0,2) and (3,4)
        assert items.tolist() == [0, 2, 1, 3, 4]  # block order
        # 0 and 2: half a pair each, 3 objects below
        # 1: no tie pairs, 2 objects below
        assert c.tolist() == [0.5 + 3, 0.5 + 3, 2, 0.5, 0.5]


class TestLogRatioSplit:
    def test_uniform_model_zero(self):
        m = uniform_pair_model(3)
        assert log_ratio_split(P([0, 1, 2]), 0, ((0,), (1, 2)), m) == 0.0

    def test_single_pair(self):
        m = random_matrix_model(2, seed=1)
        got = log_ratio_split(P([0, 1]), 0, ((0,), (1,)), m)
        assert got == pytest.approx(m.order[0, 1] - m.tie[0, 1], abs=1e-12)

    def test_matches_full_log_weight_difference_exhaustively(self):
        # every state, every block, every bipartition, n <= 4
        for n in (2, 3, 4):
            m = random_matrix_model(n, seed=20 + n)
            for X in enumerate_ordered_partitions(n):
                for t, block in enumerate(X.blocks):
                    nt = len(block)
                    if nt < 2:
                        continue
                    for mask in range(1, (1 << nt) - 1):
                        A = tuple(block[i] for i in range(nt) if mask >> i & 1)
                        B = tuple(block[i] for i in range(nt) if not mask >> i & 1)
                        X_split = OrderedPartition(
                            X.blocks[:t] + (A, B) + X.blocks[t + 1 :], n
                        )
                        delta = log_weight(X_split, m) - log_weight(X, m)
                        assert log_ratio_split(X, t, (A, B), m) == pytest.approx(
                            delta, abs=1e-10
                        )

    def test_invalid_bipartition_rejected(self):
        m = uniform_pair_model(3)
        X = P([0, 1, 2])
        with pytest.raises(ValueError):
            log_ratio_split(X, 0, ((0,), (1,)), m)  # loses object 2
        with pytest.raises(ValueError):
            log_ratio_split(X, 0, ((0, 1, 2), ()), m)
        with pytest.raises(ValueError):
            log_ratio_split(P([0], [1, 2]), 0, ((0,), (1,)), m)  # singleton block


class TestLogRatioMerge:
    def test_uniform_model_zero(self):
        assert log_ratio_merge(P([0], [1]), 0, uniform_pair_model(2)) == 0.0

    def test_single_pair(self):
        m = random_matrix_model(2, seed=3)
        got = log_ratio_merge(P([0], [1]), 0, m)
        assert got == pytest.approx(m.tie[0, 1] - m.order[0, 1], abs=1e-12)

    def test_inverse_of_split(self):
        for n in (3, 4):
            m = random_matrix_model(n, seed=30 + n)
            for X in enumerate_ordered_partitions(n):
                for t in range(X.n_blocks - 1):
                    A, B = X.blocks[t], X.blocks[t + 1]
                    merged = OrderedPartition(
                        X.blocks[:t] + (tuple(sorted(A + B)),) + X.blocks[t + 2 :], n
                    )
                    assert log_ratio_merge(X, t, m) == pytest.approx(
                        -log_ratio_split(merged, t, (A, B), m), abs=1e-12
                    )

    def test_last_block_rejected(self):
        with pytest.raises(ValueError):
            log_ratio_merge(P([0], [1]), 1, uniform_pair_model(2))


class TestLogLinearPairModel:
    def test_zero_weights_uniform(self):
        params = LogLinearParams(
            alpha=[0.0], beta=[0.0],
            tie_features=[lambda i, j: 1.0],
            order_features=[lambda i, j: 1.0],
        )
        m = loglinear_pair_model(params, 3)
        assert np.all(m.tie == 0.0)
        assert np.all(m.order == 0.0)

    def test_constant_feature(self):
        params = LogLinearParams(
            alpha=[0.5], beta=[],
            tie_features=[lambda i, j: 1.0],
            order_features=[],
        )
        m = loglinear_pair_model(params, 4)
        off_diag = ~np.eye(4, dtype=bool)
        assert np.all(m.tie[off_diag] == 0.5)

    def test_positivity_for_random_weights(self):
        rng = np.random.default_rng(0)
        params = LogLinearParams(
            alpha=rng.uniform(-10, 10, 2),
            beta=rng.uniform(-10, 10, 2),
            tie_features=[lambda i, j: 1.0, lambda i, j: float(i + j)],
            order_features=[lambda i, j: 1.0, lambda i, j: float(i - j)],
        )
        m = loglinear_pair_model(params, 5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert math.exp(m.log_tie(i, j)) > 0
                    assert math.exp(m.log_order(i, j)) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LogLinearParams(alpha=[1.0, 2.0], beta=[], tie_features=[lambda i, j: 1.0],
                            order_features=[])


class TestFromGradedRatings:
    def test_single_item(self):
        assert from_graded_ratings({0: 5}).blocks == ((0,),)

    def test_grouping_and_order(self):
        X = from_graded_ratings({0: 5, 1: 3, 2: 5})
        assert X.blocks == ((0, 2), (1,))

    def test_strictly_decreasing_grades(self):
        X = from_graded_ratings({0: 1, 1: 2, 2: 3})
        assert X.blocks == ((2,), (1,), (0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_graded_ratings({})

    def test_global_ids_with_explicit_universe(self):
        X = from_graded_ratings({7: 4, 3: 4, 9: 1}, n_objects=12)
        assert X.blocks == ((3, 7), (9,))
        assert X.n_objects == 12
        assert not X.covers_universe()


class TestMatrixPairModel:
    def test_asymmetric_tie_rejected(self):
        tie = np.zeros((2, 2))
        tie[0, 1] = 1.0
        with pytest.raises(ValueError):
            MatrixPairModel(tie, np.zeros((2, 2)))

    def test_scaled(self):
        m = random_matrix_model(3, seed=4)
        s = m.scaled(0.25)
        assert np.allclose(s.tie, 0.25 * m.tie)
        assert np.allclose(s.order, 0.25 * m.order)

    def test_worth_scaled(self):
        w = WorthPairModel(2.0, np.array([1.0, -1.0]))
        s = w.scaled(0.5)
        assert s.nu == 1.0
        assert np.allclose(s.worth, [0.5, -0.5])


class TestUniformPairModel:
    """The uniform model is the zero worth model: O(n) memory, exact zeros."""

    def test_peak_allocation_is_linear(self):
        # two dense n x n float tables would be 64 MB at n = 2000
        tracemalloc.start()
        try:
            m = uniform_pair_model(2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.n_objects == 2000
        assert peak < 1 << 20

    def test_every_ratio_and_weight_is_exactly_zero(self):
        m = uniform_pair_model(5)
        ratio = m.split_ratio(range(5))
        for X in enumerate_ordered_partitions(5):
            assert log_weight(X, m) == 0.0
            for t, block in enumerate(X.blocks):
                for mask in range(1, (1 << len(block)) - 1):
                    A = [x for i, x in enumerate(block) if mask >> i & 1]
                    B = [x for i, x in enumerate(block) if not mask >> i & 1]
                    assert ratio(A, B) == 0.0
                    assert log_ratio_split(X, t, (A, B), m) == 0.0
