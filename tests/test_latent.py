import itertools
import math
import random

import numpy as np
import pytest
from scipy.special import logsumexp

from osmrank.combinatorics import OrderedPartition, enumerate_ordered_partitions
from osmrank.core import MatrixPairModel, WorthPairModel, log_weight, uniform_pair_model
from osmrank.latent import (
    LatentModel,
    effective_pair_model,
    gibbs_mh_step,
    hidden_posterior,
    log_joint_weight,
    sample_hidden,
    sigmoid,
)
from osmrank.learning import CFParams
from osmrank.sampler import transition_matrix

from helpers import random_latent_model


def P(*blocks):
    return OrderedPartition.from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


def uniform_latent(n, k):
    return LatentModel(uniform_pair_model(n), [uniform_pair_model(n) for _ in range(k)])


def brute_joint(m):
    """Exact joint table P(X, h) by full enumeration of both layers."""
    states = list(enumerate_ordered_partitions(m.n_objects))
    configs = list(itertools.product([0, 1], repeat=m.n_hidden))
    logs = np.array(
        [[log_joint_weight(X, np.array(h), m) for h in configs] for X in states]
    )
    probs = np.exp(logs - logsumexp(logs))
    return states, configs, probs / probs.sum()


class TestLogOmegaK:
    def test_zero_weights(self):
        m = uniform_latent(3, 2)
        for X in enumerate_ordered_partitions(3):
            assert m.log_omegas(X)[0] == 0.0

    def test_single_pair_state(self):
        m = random_latent_model(2, 1, seed=0)
        assert m.log_omegas(P([0, 1]))[0] == pytest.approx(m.hidden[0].tie[0, 1])

    def test_matches_log_weight(self):
        m = random_latent_model(4, 3, seed=1)
        for X in enumerate_ordered_partitions(4):
            for k in range(3):
                assert m.log_omegas(X)[k] == pytest.approx(
                    log_weight(X, m.hidden[k]), abs=1e-12
                )

    def test_worth_fast_path_matches_generic(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=6)
        hidden = [WorthPairModel(0.2, rng.normal(size=6)) for _ in range(3)]
        m = CFParams(0.2, u, np.column_stack([hm.worth for hm in hidden]))
        r = random.Random(0)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        for _ in range(20):
            X = sample_uniform_ordered_partition(6, r)
            fast = m.log_omegas(X)
            slow = np.array([log_weight(X, hm) for hm in hidden])
            np.testing.assert_allclose(fast, slow, atol=1e-12)


class TestHiddenPosterior:
    def test_symmetric_case(self):
        m = uniform_latent(3, 4)
        np.testing.assert_allclose(hidden_posterior(P([0, 1, 2]), m), 0.5)

    def test_logistic_value(self):
        # force log Omega_1(X) = 1 for X = ({0,1})
        tie = np.array([[0.0, 1.0], [1.0, 0.0]])
        hm = MatrixPairModel(tie, np.zeros((2, 2)))
        m = LatentModel(uniform_pair_model(2), [hm])
        p = hidden_posterior(P([0, 1]), m)
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
        assert p[0] == pytest.approx(0.7311, abs=1e-4)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_brute_force_marginalization(self, k):
        m = random_latent_model(3, k, seed=k)
        states, configs, probs = brute_joint(m)
        for si, X in enumerate(states):
            post = hidden_posterior(X, m)
            row = probs[si]
            row = row / row.sum()
            for unit in range(k):
                brute = sum(row[ci] for ci, h in enumerate(configs) if h[unit])
                assert post[unit] == pytest.approx(brute, abs=1e-10)

    def test_joint_posterior_factorizes(self):
        for k in (2, 4):
            m = random_latent_model(3, k, seed=40 + k)
            states, configs, probs = brute_joint(m)
            for si, X in enumerate(states):
                post = hidden_posterior(X, m)
                row = probs[si] / probs[si].sum()
                for ci, h in enumerate(configs):
                    prod = np.prod([post[u] if h[u] else 1 - post[u] for u in range(k)])
                    assert abs(row[ci] - prod) < 1e-10


class TestLogJointWeight:
    def test_all_zero_hidden(self):
        m = random_latent_model(3, 2, seed=2)
        X = P([0, 1], [2])
        assert log_joint_weight(X, np.zeros(2), m) == pytest.approx(log_weight(X, m.base))

    def test_single_unit_active(self):
        m = random_latent_model(3, 2, seed=3)
        X = P([0], [1, 2])
        expected = log_weight(X, m.base) + m.log_omegas(X)[0]
        assert log_joint_weight(X, np.array([1, 0]), m) == pytest.approx(expected)

    def test_shape_mismatch(self):
        m = random_latent_model(3, 2, seed=4)
        with pytest.raises(ValueError):
            log_joint_weight(P([0, 1, 2]), np.zeros(3), m)

    def test_sums_to_exact_log_z(self):
        from osmrank.partition_function import exact_log_z

        m = random_latent_model(3, 2, seed=5)
        states, configs, _ = brute_joint(m)
        logs = [
            log_joint_weight(X, np.array(h), m) for X in states for h in configs
        ]
        assert logsumexp(logs) == pytest.approx(exact_log_z(m), abs=1e-8)

    def test_marginal_identity(self):
        # sum_h exp(log joint) == exp(log_weight(base)) * prod_k (1 + Omega_k)
        m = random_latent_model(3, 3, seed=6)
        configs = list(itertools.product([0, 1], repeat=3))
        for X in enumerate_ordered_partitions(3):
            lhs = sum(math.exp(log_joint_weight(X, np.array(h), m)) for h in configs)
            rhs = math.exp(log_weight(X, m.base))
            for k in range(3):
                rhs *= 1.0 + math.exp(m.log_omegas(X)[k])
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestEffectivePairModel:
    def test_zero_hidden_returns_base(self):
        m = random_latent_model(3, 2, seed=7)
        assert effective_pair_model(np.zeros(2), m) is m.base

    def test_single_active_unit_adds(self):
        m = random_latent_model(3, 1, seed=8)
        eff = effective_pair_model(np.array([1]), m)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert eff.log_tie(i, j) == pytest.approx(
                        m.base.log_tie(i, j) + m.hidden[0].log_tie(i, j)
                    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_weight_identity_matrix_models(self, seed):
        m = random_latent_model(4, 3, seed=seed)
        rng = random.Random(seed)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        for _ in range(10):
            X = sample_uniform_ordered_partition(4, rng)
            h = np.array([rng.randrange(2) for _ in range(3)])
            assert log_weight(X, effective_pair_model(h, m)) == pytest.approx(
                log_joint_weight(X, h, m), abs=1e-10
            )

    def test_log_weight_identity_worth_models(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=5)
        m = CFParams(0.5, u, np.column_stack([rng.normal(size=5) for _ in range(2)]))
        eff = effective_pair_model(np.array([1, 1]), m)
        assert isinstance(eff, WorthPairModel)
        r = random.Random(1)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        for _ in range(10):
            X = sample_uniform_ordered_partition(5, r)
            h = np.array([r.randrange(2) for _ in range(2)])
            assert log_weight(X, effective_pair_model(h, m)) == pytest.approx(
                log_joint_weight(X, h, m), abs=1e-10
            )


class TestGibbsMhStep:
    def test_zero_weight_hidden_is_fair_coin(self):
        m = uniform_latent(3, 2)
        rng = random.Random(0)
        X = P([0, 1, 2])
        ones = np.zeros(2)
        trials = 20_000
        for _ in range(trials):
            h = sample_hidden(m.log_omegas(X), rng)
            ones += h
        sigma = math.sqrt(trials * 0.25)
        assert np.all(np.abs(ones - trials / 2) < 4 * sigma)

    def test_deterministic_under_seed(self):
        m = random_latent_model(3, 2, seed=10)
        out = []
        for _ in range(2):
            rng = random.Random(99)
            X = OrderedPartition.singletons(3)
            seq = []
            for _ in range(200):
                X, h = gibbs_mh_step(X, m, rng)
                seq.append((X.blocks, tuple(h.tolist())))
            out.append(seq)
        assert out[0] == out[1]

    def test_joint_distribution_small_run(self):
        # reduced version of the acceptance run: TV < 0.05 at 2e5 sweeps
        m = random_latent_model(3, 2, seed=11)
        states, configs, probs = brute_joint(m)
        idx = {(X.blocks, h): (si, ci) for si, X in enumerate(states) for ci, h in enumerate(configs)}
        rng = random.Random(1)
        X = OrderedPartition.singletons(3)
        counts = np.zeros_like(probs)
        sweeps = 200_000
        for _ in range(sweeps):
            X, h = gibbs_mh_step(X, m, rng)
            si, ci = idx[(X.blocks, tuple(h.tolist()))]
            counts[si, ci] += 1
        tv = 0.5 * np.abs(counts / sweeps - probs).sum()
        assert tv < 0.05

    def test_sweep_preserves_exact_joint(self):
        # apply the exact sweep operator to the exact joint; must be invariant
        for k in (1, 2):
            m = random_latent_model(3, k, seed=50 + k)
            states, configs, probs = brute_joint(m)
            n_states = len(states)
            inner = 3  # default inner_steps = covered objects
            # per hidden config: posterior-of-h given X, and X-kernel at that h
            post = np.array([hidden_posterior(X, m) for X in states])  # (S, K)
            p_h = np.ones((n_states, len(configs)))
            for ci, h in enumerate(configs):
                for u in range(k):
                    p_h[:, ci] *= post[:, u] if h[u] else 1.0 - post[:, u]
            new = np.zeros_like(probs)
            for ci, h in enumerate(configs):
                eff = effective_pair_model(np.array(h), m)
                _, K1 = transition_matrix(eff, states=states)
                Ks = np.linalg.matrix_power(K1, inner)
                # mass entering (X', h=ci): sum_X margin(X) P(h|X) K_h^s[X, X']
                margin = probs.sum(axis=1)
                new[:, ci] = (margin * p_h[:, ci]) @ Ks
            assert np.abs(new - probs).max() < 1e-8


class TestLatentRepresentation:
    """The posterior activation vector hidden_posterior(X, m) is a user's
    latent representation."""

    def test_zero_weights_all_half(self):
        m = uniform_latent(4, 3)
        np.testing.assert_allclose(hidden_posterior(P([0, 1, 2, 3]), m), 0.5)

    def test_equals_hidden_posterior(self):
        m = random_latent_model(3, 2, seed=12)
        X = P([0, 2], [1])
        expected = [sigmoid(m.log_omegas(X)[k]) for k in range(2)]
        np.testing.assert_array_equal(hidden_posterior(X, m), expected)

    def test_within_block_listing_invariance(self):
        m = random_latent_model(4, 2, seed=13)
        a = OrderedPartition.from_blocks([[3, 0], [2, 1]], 4)
        b = OrderedPartition.from_blocks([[0, 3], [1, 2]], 4)
        np.testing.assert_array_equal(hidden_posterior(a, m), hidden_posterior(b, m))


class TestSigmoid:
    def test_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(800.0) == 1.0
