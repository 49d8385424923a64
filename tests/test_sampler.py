import math
import random
from collections import Counter

import numpy as np
import pytest

from osmrank.combinatorics import (
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
    sample_uniform_ordered_partition,
)
from osmrank.core import (
    WorthPairModel,
    log_ratio_merge,
    log_ratio_split,
    log_weight,
    uniform_pair_model,
)
from osmrank.sampler import (
    ChainState,
    InfeasibleMoveError,
    MoveStats,
    SamplerConfig,
    _single_move,
    _split_log_q_ratio,
    advance_partition,
    mh_step,
    propose_merge,
    propose_split,
    run_chain,
    transition_matrix,
)

from helpers import FakeRng, random_matrix_model


def P(*blocks):
    return OrderedPartition.from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


def exact_pi(m):
    states = list(enumerate_ordered_partitions(m.n_objects))
    logs = np.array([log_weight(X, m) for X in states])
    pi = np.exp(logs - logs.max())
    return states, pi / pi.sum()


class TestProposeSplit:
    def test_two_object_block(self):
        # seeds forced; detailed balance fixes the outcome-level ratio at
        # T_split * N(N-1) 2^(N-2) / (T_pre * |A||B|) = 2*1*1 / (1*1) = 2
        prop = propose_split(P([0, 1]), random.Random(0))
        assert prop.kind == "split"
        assert prop.bipartition in (((0,), (1,)), ((1,), (0,)))
        assert prop.log_q_ratio == pytest.approx(math.log(2.0))
        assert prop.proposed.blocks in (((0,), (1,)), ((1,), (0,)))

    def test_three_object_block_with_trailing_singleton(self):
        # T_split=1, N=3, T_pre=2, |A||B|=2 always: ratio = 1*3*2*2/(2*2) = 3
        rng = random.Random(1)
        for _ in range(50):
            prop = propose_split(P([0, 1, 2], [3]), rng)
            assert prop.block_index == 0
            assert prop.log_q_ratio == pytest.approx(math.log(3.0))
            assert prop.proposed.n_blocks == 3
            assert prop.proposed.blocks[2] == (3,)

    def test_log_q_matches_formula_for_sampled_outcomes(self):
        rng = random.Random(2)
        X = P([0, 1, 2, 3], [4, 5], [6])
        splittable = 2
        for _ in range(200):
            prop = propose_split(X, rng)
            A, B = prop.bipartition
            nt = len(A) + len(B)
            expected = _split_log_q_ratio(splittable, nt, X.n_blocks, len(A) * len(B))
            assert prop.log_q_ratio == pytest.approx(expected)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleMoveError):
            propose_split(P([0], [1]), random.Random(0))

    def test_outcome_distribution_matches_analytic(self):
        # P[(A,B)] = |A||B| / (N(N-1) 2^(N-2)); N=3: each of the 6 outcomes 1/6
        rng = random.Random(3)
        draws = 120_000
        counts = Counter(propose_split(P([0, 1, 2]), rng).proposed.blocks for _ in range(draws))
        assert len(counts) == 6
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for c in counts.values():
            assert abs(c - draws / 6) < 4 * sigma

    def test_outcome_distribution_mixed_sizes(self):
        # N=4: singleton-triple outcomes get 3/48, pair-pair get 4/48
        rng = random.Random(4)
        draws = 200_000
        counts = Counter(propose_split(P([0, 1, 2, 3]), rng).proposed.blocks for _ in range(draws))
        assert len(counts) == 14
        for blocks, c in counts.items():
            a, b = len(blocks[0]), len(blocks[1])
            p = a * b / (4 * 3 * 4)
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(c - draws * p) < 4 * sigma


class TestProposeMerge:
    def test_two_singletons(self):
        prop = propose_merge(P([0], [1]), random.Random(0))
        assert prop.kind == "merge"
        assert prop.proposed.blocks == ((0, 1),)
        assert prop.log_q_ratio == pytest.approx(math.log(0.5))
        assert prop.bipartition is None

    def test_three_singletons_first_pair(self):
        prop = propose_merge(P([0], [1], [2]), FakeRng(randrange_values=[0]))
        assert prop.proposed.blocks == ((0, 1), (2,))
        # (T-1) * N1 N2 / (T_merge * N*(N*-1) 2^(N*-2)) = 2*1/(1*2*1*1) = 1
        assert prop.log_q_ratio == pytest.approx(0.0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleMoveError):
            propose_merge(P([0, 1]), random.Random(0))

    def test_round_trip_ratios_are_reciprocal(self):
        rng = random.Random(5)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        checked = 0
        while checked < 100:
            X = sample_uniform_ordered_partition(6, rng)
            if X.n_blocks < 2:
                continue
            merge = propose_merge(X, rng)
            t = merge.block_index
            A, B = X.blocks[t], X.blocks[t + 1]
            merged = merge.proposed
            splittable = [i for i, b in enumerate(merged.blocks) if len(b) > 1]
            split_log_q = _split_log_q_ratio(
                len(splittable), len(A) + len(B), merged.n_blocks, len(A) * len(B)
            )
            assert merge.log_q_ratio == pytest.approx(-split_log_q, abs=1e-12)
            checked += 1


class TestMhStep:
    def test_merge_acceptance_probability_half(self):
        # uniform model, X = ({0},{1}): only merge feasible, l=1, p=1/2
        m = uniform_pair_model(2)
        states, K = transition_matrix(m)
        idx = {X.blocks: i for i, X in enumerate(states)}
        s_split = idx[((0,), (1,))]
        s_merged = idx[((0, 1),)]
        assert K[s_split, s_merged] == pytest.approx(0.5)
        assert K[s_split, s_split] == pytest.approx(0.5)

    def test_clamped_acceptance_is_one(self):
        # from ({0,1}) both split outcomes have l*p = 2 >= 1: no self-loop mass
        m = uniform_pair_model(2)
        states, K = transition_matrix(m)
        idx = {X.blocks: i for i, X in enumerate(states)}
        s_merged = idx[((0, 1),)]
        assert K[s_merged, s_merged] == pytest.approx(0.0)
        assert K[s_merged, idx[((0,), (1,))]] == pytest.approx(0.5)

    def test_single_object_never_moves(self):
        m = uniform_pair_model(1)
        state = ChainState(partition=P([0]), rng=random.Random(0))
        for _ in range(100):
            mh_step(state, m)
        assert state.partition.blocks == ((0,),)
        assert state.stats.no_move_steps == 100
        assert state.stats.split_proposed == 0
        assert state.stats.merge_proposed == 0

    def test_stats_accumulate(self):
        m = uniform_pair_model(3)
        state = ChainState(partition=P([0, 1, 2]), rng=random.Random(1))
        for _ in range(500):
            mh_step(state, m)
        s = state.stats
        assert s.split_proposed + s.merge_proposed == 500
        assert 0 < s.split_accepted <= s.split_proposed
        assert 0 < s.merge_accepted <= s.merge_proposed


class TestDetailedBalance:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_model(self, n):
        m = uniform_pair_model(n)
        states, K = transition_matrix(m)
        assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-12
        pi = np.full(len(states), 1.0 / len(states))
        flux = pi[:, None] * K
        assert np.abs(flux - flux.T).max() < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_models_n3(self, seed):
        m = random_matrix_model(3, seed=seed, scale=1.5)
        states, K = transition_matrix(m)
        _, pi = exact_pi(m)
        flux = pi[:, None] * K
        assert np.abs(flux - flux.T).max() < 1e-10

    def test_stationary_eigenvector_matches(self):
        m = random_matrix_model(4, seed=7)
        states, K = transition_matrix(m)
        _, pi = exact_pi(m)
        vals, vecs = np.linalg.eig(K.T)
        lead = np.argmin(np.abs(vals - 1.0))
        v = np.real(vecs[:, lead])
        v = v / v.sum()
        assert np.abs(v - pi).max() < 1e-8


class TestRunChain:
    def test_zero_steps(self):
        samples, stats = run_chain(P([0, 1]), uniform_pair_model(2), SamplerConfig(steps=0))
        assert samples == []
        assert stats.as_dict() == MoveStats().as_dict()

    def test_deterministic_under_seed(self):
        m = random_matrix_model(4, seed=8)
        cfg = SamplerConfig(steps=2000, seed=42)
        a, stats_a = run_chain(OrderedPartition.singletons(4), m, cfg)
        b, stats_b = run_chain(OrderedPartition.singletons(4), m, cfg)
        assert a == b
        assert stats_a.as_dict() == stats_b.as_dict()

    def test_thinning_and_burn_in_counts(self):
        cfg = SamplerConfig(steps=1000, burn_in=200, thin=10, seed=0)
        samples, _ = run_chain(P([0, 1, 2]), uniform_pair_model(3), cfg)
        assert len(samples) == 80

    def test_pairwise_marginal_matches_enumeration(self):
        # sample mean of 1[x0 outranks x1] vs exact marginal
        m = random_matrix_model(5, seed=10)
        states, pi = exact_pi(m)

        def above(X):
            ranks = X.block_of()
            return 1.0 if ranks[0] < ranks[1] else 0.0

        exact = sum(p * above(X) for X, p in zip(states, pi))
        cfg = SamplerConfig(steps=400_000, burn_in=10_000, thin=1, seed=3)
        samples, _ = run_chain(OrderedPartition.singletons(5), m, cfg)
        est = np.mean([above(X) for X in samples])
        assert est == pytest.approx(exact, abs=0.01)

    def test_ergodicity_visits_every_state(self):
        m = uniform_pair_model(4)
        targets = {X.blocks for X in enumerate_ordered_partitions(4)}
        for start in (OrderedPartition.singletons(4), P([0, 1, 2, 3])):
            state = ChainState(partition=start, rng=random.Random(11))
            visited = {state.partition.blocks}
            for _ in range(100_000):
                mh_step(state, m)
                visited.add(state.partition.blocks)
                if visited == targets:
                    break
            assert visited == targets

    def test_block_count_distribution_matches_combinatorial_prior(self):
        # uniform model: stationary block-count histogram equals the
        # enumeration-derived prior s(n,T) T! / fubini(n)
        n = 4
        m = uniform_pair_model(n)
        from osmrank.combinatorics import stirling2

        prior = np.array(
            [stirling2(n, t) * math.factorial(t) / fubini(n) for t in range(1, n + 1)]
        )
        state = ChainState(partition=OrderedPartition.singletons(n), rng=random.Random(12))
        counts = np.zeros(n)
        steps = 200_000
        for _ in range(steps):
            mh_step(state, m)
            counts[state.partition.n_blocks - 1] += 1
        emp = counts / steps
        assert 0.5 * np.abs(emp - prior).sum() < 0.02


class TestSamplerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=-1)
        with pytest.raises(ValueError):
            SamplerConfig(steps=10, thin=0)

    def test_default_burn_in(self):
        assert SamplerConfig(steps=1000).resolved_burn_in() == 100
        assert SamplerConfig(steps=1000, burn_in=5).resolved_burn_in() == 5

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=10, burn_in=-1)


def worth_model(n, seed):
    """Worths and nu on the scale of a trained collaborative-ranking model."""
    rng = np.random.default_rng(seed)
    return WorthPairModel(-0.5, rng.normal(0.0, 0.5, n))


def bipartitions(block):
    """Every ordered split (A, B) of ``block`` into non-empty halves."""
    nt = len(block)
    for mask in range(1, (1 << nt) - 1):
        yield (
            tuple(x for i, x in enumerate(block) if mask >> i & 1),
            tuple(x for i, x in enumerate(block) if not mask >> i & 1),
        )


class TestModelRatios:
    """``split_ratio`` against the validated pair sums of ``core``, over every
    split and merge of every state."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["worth", "matrix"])
    def test_matches_core_pair_sums(self, family, n):
        m = worth_model(n, seed=n) if family == "worth" else random_matrix_model(n, seed=n, scale=1.5)
        checked = 0
        for X in enumerate_ordered_partitions(n):
            ratio = m.split_ratio([x for b in X.blocks for x in b])
            for t, block in enumerate(X.blocks):
                for A, B in bipartitions(block):
                    assert ratio(A, B) == pytest.approx(log_ratio_split(X, t, (A, B), m), abs=1e-12)
                    checked += 1
                if t + 1 < X.n_blocks:
                    merged = -ratio(block, X.blocks[t + 1])
                    assert merged == pytest.approx(log_ratio_merge(X, t, m), abs=1e-12)
                    checked += 1
        assert checked or n == 1

    def test_worth_ratio_over_catalog_subset(self):
        # per-user chains hold a few items of a larger catalog
        m = worth_model(40, seed=9)
        X = OrderedPartition.from_blocks([[3, 17, 30], [8], [12, 39]], n_objects=40)
        ratio = m.split_ratio([3, 17, 30, 8, 12, 39])
        for A, B in bipartitions((3, 17, 30)):
            assert ratio(A, B) == pytest.approx(log_ratio_split(X, 0, (A, B), m), abs=1e-12)
        assert -ratio((8,), (12, 39)) == pytest.approx(log_ratio_merge(X, 1, m), abs=1e-12)


def reference_run(X, m, rng, moves, stats):
    """The ``_single_move`` loop, counting kinds and acceptances into ``stats``."""
    for _ in range(moves):
        X, kind, accepted = _single_move(X, m, rng)
        if kind is None:
            stats.no_move_steps += 1
        else:
            setattr(stats, f"{kind}_proposed", getattr(stats, f"{kind}_proposed") + 1)
            setattr(stats, f"{kind}_accepted", getattr(stats, f"{kind}_accepted") + accepted)
    return X


KERNEL_MODELS = {  # name -> (model, objects in the chain)
    "worth-n5": (lambda: worth_model(5, seed=1), 5),
    "worth-n50": (lambda: worth_model(50, seed=2), 50),
    "worth-n200": (lambda: worth_model(200, seed=3), 200),
    "worth-catalog": (lambda: worth_model(30, seed=4), 8),
    "matrix-n5": (lambda: random_matrix_model(5, seed=5, scale=1.5), 5),
    "uniform-n6": (lambda: uniform_pair_model(6), 6),
}


class TestArrayKernel:
    """``advance_partition`` against the reference ``_single_move`` loop."""

    @pytest.mark.parametrize("name", list(KERNEL_MODELS))
    def test_trajectory_matches_reference(self, name):
        make, n = KERNEL_MODELS[name]
        m = make()
        objects = random.Random(0).sample(range(m.n_objects), n)
        start = sample_uniform_ordered_partition(n, random.Random(1))
        X = OrderedPartition.from_blocks(
            [[objects[x] for x in b] for b in start.blocks], m.n_objects
        )
        moves, chunk = 100_000, max(n, 10)
        ref_rng, rng = random.Random(2), random.Random(2)
        ref_X, ref_stats, stats = X, MoveStats(), MoveStats()
        for _ in range(moves // chunk):
            ref_X = reference_run(ref_X, m, ref_rng, chunk, ref_stats)
            X = advance_partition(X, m, rng, chunk, stats)
            assert X == ref_X
        assert rng.getstate() == ref_rng.getstate()
        assert stats.as_dict() == ref_stats.as_dict()
        assert stats.split_accepted and stats.merge_accepted

    @pytest.mark.parametrize("name", ["matrix-n5", "uniform-n6"])
    @pytest.mark.parametrize("steps,burn_in,thin", [(20_000, 137, 7), (50, 80, 3)])
    def test_run_chain_matches_reference(self, name, steps, burn_in, thin):
        m = KERNEL_MODELS[name][0]()
        cfg = SamplerConfig(steps=steps, burn_in=burn_in, thin=thin, seed=3)
        samples, stats = run_chain(OrderedPartition.singletons(m.n_objects), m, cfg)
        X, ref_rng = OrderedPartition.singletons(m.n_objects), random.Random(cfg.seed)
        ref_samples, ref_stats = [], MoveStats()
        for step in range(1, steps + 1):
            X = reference_run(X, m, ref_rng, 1, ref_stats)
            if step > burn_in and (step - burn_in) % thin == 0:
                ref_samples.append(X)
        assert samples == ref_samples
        assert stats.as_dict() == ref_stats.as_dict()

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            advance_partition(P([0, 1]), uniform_pair_model(2), random.Random(0), -1)
