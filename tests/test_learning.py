import math
import random
from collections import Counter

import numpy as np
import pytest

from osmrank.combinatorics import EnumerationCapError, OrderedPartition
from osmrank.core import log_weight
from osmrank.latent import gibbs_mh_step, hidden_posterior, log_joint_weight
from osmrank.learning import (
    CFParams,
    TrainConfig,
    cf_latent_model,
    estimate_gradient,
    exact_gradient,
    exact_log_likelihood,
    load_checkpoint,
    pairwise_disagreement,
    sample_partitions_exact,
    save_checkpoint,
    state_features,
    sufficient_stats,
    train,
)
from osmrank.partition_function import exact_distribution


def P(*blocks):
    return OrderedPartition.from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


def random_params(n, k, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    return CFParams(
        rng.uniform(-scale, scale),
        rng.uniform(-scale, scale, n),
        rng.uniform(-scale, scale, (n, k)),
    )


def flatten(p: CFParams) -> np.ndarray:
    return np.concatenate([[p.nu], p.u, p.W.ravel()])


def unflatten(vec: np.ndarray, n: int, k: int) -> CFParams:
    return CFParams(vec[0], vec[1 : 1 + n], vec[1 + n :].reshape(n, k))


class TestCfLatentModel:
    def test_zero_params_uniform(self):
        m = cf_latent_model(CFParams.zeros(3, 2))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m.base.log_tie(i, j) == 0.0
                    assert m.base.log_order(i, j) == 0.0
                    for hm in m.hidden:
                        assert hm.log_tie(i, j) == 0.0

    def test_formula_plug_in(self):
        # nu = 0, item-0 worth 2 on the first hidden unit, item-1 worth 0:
        # tie(0,1) = (2+0)/2 = 1, order(0>1) = 2
        p = CFParams(0.0, np.zeros(2), np.array([[2.0], [0.0]]))
        m = cf_latent_model(p)
        assert m.hidden[0].log_tie(0, 1) == pytest.approx(1.0)
        assert m.hidden[0].log_order(0, 1) == pytest.approx(2.0)
        assert m.hidden[0].log_order(1, 0) == pytest.approx(0.0)

    def test_tie_symmetry_random(self):
        p = random_params(5, 3, seed=0)
        m = cf_latent_model(p)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert m.base.log_tie(i, j) == pytest.approx(m.base.log_tie(j, i))
                    for hm in m.hidden:
                        assert hm.log_tie(i, j) == pytest.approx(hm.log_tie(j, i))

    def test_shared_nu(self):
        p = random_params(3, 2, seed=1)
        m = cf_latent_model(p)
        assert m.base.nu == p.nu
        for hm in m.hidden:
            assert hm.nu == p.nu


    def test_effective_nu_is_a_left_fold(self):
        # ten additions of 0.1 fold to 0.9999999999999999; a compensated sum gives 1.0
        p = CFParams(0.1, np.zeros(2), np.zeros((2, 10)))
        assert p.effective(range(10)).nu == 0.1 + 0.9999999999999999
        assert 0.1 + math.fsum([0.1] * 10) != 0.1 + 0.9999999999999999


class TestSufficientStats:
    def test_single_ordered_pair(self):
        s = sufficient_stats(P([0], [1]), np.zeros(0), 2, 0)
        np.testing.assert_allclose(s.d_u, [1.0, 0.0])
        assert s.d_nu == 0.0

    def test_single_tie_pair_active_unit(self):
        s = sufficient_stats(P([0, 1]), np.ones(1), 2, 1)
        assert s.d_nu == 2.0  # one pair, base + one active unit
        np.testing.assert_allclose(s.d_u, [0.5, 0.5])
        np.testing.assert_allclose(s.d_W, [[0.5], [0.5]])

    def test_all_singletons_no_nu(self):
        s = sufficient_stats(P([0], [1], [2]), np.zeros(2), 3, 2)
        assert s.d_nu == 0.0
        np.testing.assert_allclose(s.d_u, [2.0, 1.0, 0.0])
        np.testing.assert_allclose(s.d_W, 0.0)

    def test_matches_finite_differences_of_log_joint_weight(self):
        # 20 random (X, h, params) triples; central differences at 1e-5
        rng = random.Random(0)
        np_rng = np.random.default_rng(0)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        n, k = 4, 2
        for trial in range(20):
            X = sample_uniform_ordered_partition(n, rng)
            h = np.array([rng.randrange(2) for _ in range(k)])
            p = random_params(n, k, seed=trial)
            stats = sufficient_stats(X, h, n, k)
            grad = flatten(
                CFParams(stats.d_nu, stats.d_u, stats.d_W)
            )
            vec = flatten(p)
            step = 1e-5
            for coord in range(len(vec)):
                plus, minus = vec.copy(), vec.copy()
                plus[coord] += step
                minus[coord] -= step
                f_plus = log_joint_weight(X, h, cf_latent_model(unflatten(plus, n, k)))
                f_minus = log_joint_weight(X, h, cf_latent_model(unflatten(minus, n, k)))
                fd = (f_plus - f_minus) / (2 * step)
                assert abs(grad[coord] - fd) < 1e-6

    def test_posterior_weights_are_linear(self):
        # with fractional h the stats are the exact posterior expectation
        X = P([0, 1], [2])
        post = np.array([0.25, 0.75])
        s = sufficient_stats(X, post, 3, 2)
        s0 = sufficient_stats(X, np.array([0, 0]), 3, 2)
        s1 = sufficient_stats(X, np.array([1, 1]), 3, 2)
        w = np.array([0.25, 0.75])
        expected_w = s0.d_W + (s1.d_W - s0.d_W) * w[None, :]
        np.testing.assert_allclose(s.d_W, expected_w)


class TestEstimateGradient:
    def test_matched_inputs_zero(self):
        entries = [(P([0, 1], [2]), np.array([1.0, 0.0])), (P([0], [1], [2]), np.array([0.0, 0.0]))]
        g = estimate_gradient(entries, entries, 3, 2)
        assert g.d_nu == pytest.approx(0.0)
        np.testing.assert_allclose(g.d_u, 0.0)
        np.testing.assert_allclose(g.d_W, 0.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_gradient([], [(P([0, 1]), np.zeros(1))], 2, 1)

    def test_converges_to_exact_gradient(self):
        # chain-sampled model expectations vs the enumeration oracle
        n, k = 3, 1
        p = random_params(n, k, seed=3, scale=0.8)
        data = [P([0, 1], [2]), P([2], [0, 1]), P([0], [1], [2])]
        exact = exact_gradient(p, data)

        m = cf_latent_model(p)
        rng = random.Random(0)
        X = OrderedPartition.singletons(n)
        observed = [(X_d, hidden_posterior(X_d, m)) for X_d in data]
        samples = []
        for sweep in range(60_000):
            X, h = gibbs_mh_step(X, m, rng)
            if sweep >= 2_000:
                samples.append((X, h))
        est = estimate_gradient(observed, samples, n, k)
        assert abs(est.d_nu - exact.d_nu) < 0.02 * max(1.0, abs(exact.d_nu))
        np.testing.assert_allclose(est.d_u, exact.d_u, atol=0.03)
        np.testing.assert_allclose(est.d_W, exact.d_W, atol=0.03)

    def test_error_shrinks_with_more_samples(self):
        n, k = 3, 1
        p = random_params(n, k, seed=4, scale=0.5)
        data = [P([0], [1, 2])]
        exact = exact_gradient(p, data)
        m = cf_latent_model(p)
        observed = [(X_d, hidden_posterior(X_d, m)) for X_d in data]

        def err_at(count, seed):
            rng = random.Random(seed)
            X = OrderedPartition.singletons(n)
            samples = []
            for _ in range(count):
                X, h = gibbs_mh_step(X, m, rng)
                samples.append((X, h))
            g = estimate_gradient(observed, samples, n, k)
            return np.linalg.norm(flatten(CFParams(g.d_nu - exact.d_nu,
                                                   g.d_u - exact.d_u,
                                                   g.d_W - exact.d_W)))

        errs = [np.mean([err_at(c, s) for s in range(5)]) for c in (500, 5_000, 50_000)]
        assert errs[2] < errs[0]


class TestExactGradient:
    def test_matches_finite_differences_of_log_likelihood(self):
        n, k = 3, 1
        p = random_params(n, k, seed=5, scale=0.7)
        data = [P([0, 1], [2]), P([1], [0, 2]), P([0, 1, 2])]
        g = exact_gradient(p, data)
        grad = flatten(CFParams(g.d_nu, g.d_u, g.d_W))
        vec = flatten(p)
        step = 1e-5
        for coord in range(len(vec)):
            plus, minus = vec.copy(), vec.copy()
            plus[coord] += step
            minus[coord] -= step
            ll_plus = exact_log_likelihood(unflatten(plus, n, k), data).mean()
            ll_minus = exact_log_likelihood(unflatten(minus, n, k), data).mean()
            fd = (ll_plus - ll_minus) / (2 * step)
            assert abs(grad[coord] - fd) < 1e-6

    def test_symmetric_data_symmetric_gradient(self):
        # zero params, data where items 0 and 1 appear interchangeably
        p = CFParams.zeros(2, 1)
        data = [P([0], [1]), P([1], [0])]
        g = exact_gradient(p, data)
        assert g.d_u[0] == pytest.approx(g.d_u[1])

    def test_single_datum_finite(self):
        p = random_params(3, 2, seed=6)
        g = exact_gradient(p, [P([0, 2], [1])])
        assert np.isfinite(g.d_nu)
        assert np.isfinite(g.d_u).all()
        assert np.isfinite(g.d_W).all()

    def test_caps(self):
        from osmrank.combinatorics import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            exact_gradient(CFParams.zeros(7, 1), [OrderedPartition.singletons(7)])
        with pytest.raises(EnumerationCapError):
            exact_gradient(CFParams.zeros(3, 5), [P([0, 1, 2])])


class TestStateFeatures:
    def test_cap_checked_before_cache(self):
        state_features(5, cap=8)
        with pytest.raises(EnumerationCapError):
            state_features(5, cap=4)


class TestExactLogLikelihood:
    def test_uniform_model(self):
        p = CFParams.zeros(3, 0)
        ll = exact_log_likelihood(p, [P([0, 1, 2]), P([0], [1], [2])])
        np.testing.assert_allclose(ll, -math.log(13.0))

    def test_matches_direct_enumeration(self):
        p = random_params(4, 2, seed=7)
        m = cf_latent_model(p)
        states, probs = exact_distribution(m)
        idx = {X.blocks: i for i, X in enumerate(states)}
        data = [P([0, 1], [2, 3]), P([3], [0, 1, 2])]
        ll = exact_log_likelihood(p, data)
        for d, X in enumerate(data):
            assert ll[d] == pytest.approx(math.log(probs[idx[X.blocks]]), abs=1e-10)


class TestTranslationInvariance:
    def test_shift_u_between_equal_structure_states(self):
        # states with equal within-pair and cross-pair counts keep their
        # log-weight difference when u shifts by a constant
        p = random_params(4, 0, seed=8)
        m = cf_latent_model(p)
        a, b = P([0, 1], [2], [3]), P([2, 3], [1], [0])
        base_diff = log_weight(a, m.base) - log_weight(b, m.base)
        shifted = CFParams(p.nu, p.u + 1.7, p.W)
        ms = cf_latent_model(shifted)
        shifted_diff = log_weight(a, ms.base) - log_weight(b, ms.base)
        assert shifted_diff == pytest.approx(base_diff, abs=1e-10)


class TestSamplePartitionsExact:
    def test_matches_exact_distribution(self):
        p = random_params(3, 1, seed=9)
        rng = np.random.default_rng(0)
        draws = 200_000
        out = sample_partitions_exact(p, draws, rng)
        counts = Counter(X.blocks for X in out)
        states, probs = exact_distribution(cf_latent_model(p))
        tv = 0.5 * sum(
            abs(counts.get(X.blocks, 0) / draws - q) for X, q in zip(states, probs)
        )
        assert tv < 0.01


class TestPairwiseDisagreement:
    def test_identical_is_zero(self):
        X = P([0, 1], [2])
        assert pairwise_disagreement(X, X) == 0.0

    def test_full_reversal(self):
        a = P([0], [1], [2])
        b = P([2], [1], [0])
        assert pairwise_disagreement(a, b) == 1.0

    def test_tie_vs_order_counts(self):
        a = P([0, 1], [2])
        b = P([0], [1], [2])
        # pairs: (0,1) tie vs order -> mismatch; (0,2), (1,2) agree
        assert pairwise_disagreement(a, b) == pytest.approx(1.0 / 3.0)

    def test_different_objects_rejected(self):
        with pytest.raises(ValueError):
            pairwise_disagreement(P([0], [1]), P([0], [2]))


class TestTrain:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("n_hidden", -1), ("chain_steps_per_update", 0),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("l2", -1.0), ("l2", math.nan), ("l2", math.inf),
        ("init_scale", -1.0), ("init_scale", math.inf),
    ])
    def test_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        p_true = CFParams(0.1, rng.normal(0, 1.0, 4), rng.normal(0, 0.5, (4, 1)))
        data = sample_partitions_exact(p_true, 40, np.random.default_rng(2))
        cfg = TrainConfig(epochs=2, n_hidden=1, block_size=10, seed=5)
        a = train(data, cfg)
        b = train(data, cfg)
        assert a.nu == b.nu
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.W, b.W)

    def test_improves_likelihood_on_synthetic_data(self):
        rng = np.random.default_rng(3)
        p_true = CFParams(0.0, rng.normal(0, 1.2, 4), rng.normal(0, 0.6, (4, 1)))
        data = sample_partitions_exact(p_true, 150, np.random.default_rng(4))
        train_data, held = data[:120], data[120:]
        cfg = TrainConfig(
            epochs=4, n_hidden=1, block_size=30, learning_rate=0.05, seed=6
        )
        snapshots = []
        train(train_data, cfg, callback=lambda rec: snapshots.append(rec["params"]))
        first = exact_log_likelihood(snapshots[0], held).mean()
        last = exact_log_likelihood(snapshots[-1], held).mean()
        assert last > first

    def test_degenerate_users_skipped_with_warning(self):
        data = [P([0, 1], [2]), OrderedPartition(((1,),), 3)]
        with pytest.warns(UserWarning, match="degenerate"):
            out = train(data, TrainConfig(epochs=1, n_hidden=1, seed=0))
        assert out.n_items == 3

    def test_callback_reports_disagreement(self):
        data = [P([0, 1], [2, 3])] * 6
        records = []
        cfg = TrainConfig(epochs=1, n_hidden=1, block_size=3, seed=0)
        train(data, cfg, callback=records.append)
        assert len(records) == 2
        for rec in records:
            assert 0.0 <= rec["disagreement"] <= 1.0
            assert rec["n_users"] == 3


def _bits(p: CFParams) -> bytes:
    return np.float64(p.nu).tobytes() + p.u.tobytes() + p.W.tobytes()


class TestTrainMatchesReference:
    """``train`` batches each block's statistics, computes disagreement from
    rank arrays and sums effective worths at the chain's objects only; the
    per-user loop with the per-entry accumulator, the pair loop and
    full-catalog effective models gives the same bits."""

    @staticmethod
    def users(n_items=12, n_users=14, seed=0):
        rng = random.Random(seed)
        data = []
        for u in range(n_users):
            size = 2 if u == 3 else rng.randint(2, 9)  # a 2-item user: its rank rows are padded
            items = rng.sample(range(n_items), size)
            labels = [rng.randrange(size) for _ in items]
            blocks = [[x for x, b in zip(items, labels) if b == t] for t in sorted(set(labels))]
            data.append(OrderedPartition.from_blocks(blocks, n_items))
        return data

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    @pytest.mark.parametrize("chain_steps", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 7, 50])
    @pytest.mark.parametrize("n_hidden", [0, 3])
    def test_bitwise(self, n_hidden, block_size, chain_steps, l2):
        from helpers import reference_train

        cfg = TrainConfig(learning_rate=0.05, block_size=block_size, chain_steps_per_update=chain_steps,
                          epochs=2, n_hidden=n_hidden, seed=11, l2=l2, init_scale=0.3)
        got, want = [], []
        params = train(self.users(), cfg, callback=got.append)
        expected = reference_train(self.users(), cfg, callback=want.append)
        assert _bits(params) == _bits(expected)
        assert len(got) == len(want) == 2 * math.ceil(14 / block_size)
        for a, b in zip(got, want):
            assert {k: v for k, v in a.items() if k != "params"} == {k: v for k, v in b.items() if k != "params"}
            assert _bits(a["params"]) == _bits(b["params"])


class TestCheckpoint:
    def test_round_trip_bytes_identical(self, tmp_path):
        p = random_params(5, 3, seed=11)
        path_a = tmp_path / "a.ck"
        path_b = tmp_path / "b.ck"
        save_checkpoint(str(path_a), p)
        loaded = load_checkpoint(str(path_a))
        save_checkpoint(str(path_b), loaded)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert loaded.nu == p.nu
        np.testing.assert_array_equal(loaded.u, p.u)
        np.testing.assert_array_equal(loaded.W, p.W)

    def test_zero_hidden_units(self, tmp_path):
        p = CFParams(0.25, np.array([1.0, -2.0]), np.zeros((2, 0)))
        path = tmp_path / "k0.ck"
        save_checkpoint(str(path), p)
        loaded = load_checkpoint(str(path))
        assert loaded.n_hidden == 0
        np.testing.assert_array_equal(loaded.u, p.u)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ck"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_rejects_shape_mismatch(self, tmp_path):
        p = random_params(3, 1, seed=12)
        path = tmp_path / "c.ck"
        save_checkpoint(str(path), p)
        text = path.read_text().replace("n_items 3", "n_items 4")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
