import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from osmrank.combinatorics import EnumerationCapError, OrderedPartition
from osmrank.core import log_weight
from osmrank.latent import hidden_posterior
from osmrank.learning import (
    CFParams,
    TrainConfig,
    cf_latent_model,
    estimate_gradient,
    load_checkpoint,
    pairwise_disagreement,
    save_checkpoint,
    train,
)
from helpers import gibbs_sweep
from oracles import (
    exact_distribution,
    exact_gradient,
    exact_log_likelihood,
    from_blocks,
    log_joint_weight,
    sample_partitions_exact,
    state_features,
    sufficient_stats,
    tables,
    unit_models,
)


def P(*blocks):
    return from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


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
        tie, order = tables(m)
        unit_ties = [tables(hm)[0] for hm in unit_models(m)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert tie[i, j] == 0.0
                    assert order[i, j] == 0.0
                    for hm_tie in unit_ties:
                        assert hm_tie[i, j] == 0.0

    def test_formula_plug_in(self):
        # nu = 0, item-0 worth 2 on the first hidden unit, item-1 worth 0:
        # tie(0,1) = (2+0)/2 = 1, order(0>1) = 2
        p = CFParams(0.0, np.zeros(2), np.array([[2.0], [0.0]]))
        m = cf_latent_model(p)
        tie, order = tables(unit_models(m)[0])
        assert tie[0, 1] == pytest.approx(1.0)
        assert order[0, 1] == pytest.approx(2.0)
        assert order[1, 0] == pytest.approx(0.0)

    def test_tie_symmetry_random(self):
        p = random_params(5, 3, seed=0)
        m = cf_latent_model(p)
        tie = tables(m)[0]
        unit_ties = [tables(hm)[0] for hm in unit_models(m)]
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert tie[i, j] == pytest.approx(tie[j, i])
                    for hm_tie in unit_ties:
                        assert hm_tie[i, j] == pytest.approx(hm_tie[j, i])

    def test_shared_nu(self):
        p = random_params(3, 2, seed=1)
        m = cf_latent_model(p)
        assert m.effective([]).nu == p.nu
        for hm in unit_models(m):
            assert hm.nu == p.nu


    def test_effective_nu_is_a_left_fold(self):
        # ten additions of 0.1 fold to 0.9999999999999999; a compensated sum gives 1.0
        p = CFParams(0.1, np.zeros(2), np.zeros((2, 10)))
        assert p.effective(range(10)).nu == 0.1 + 0.9999999999999999
        assert 0.1 + math.fsum([0.1] * 10) != 0.1 + 0.9999999999999999

    @pytest.mark.parametrize("field", ["nu", "u", "W", "n_objects"])
    def test_fields_cannot_be_assigned(self, field):
        # the float bound is checked on the fields once, so an assignment could pass it
        p = CFParams.zeros(3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, getattr(p, field))
        assert p.nu == p.effective([]).nu == 0.0 and p.effective([0]).nu == 0.0


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
            X, h = gibbs_sweep(X, m, rng)
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
                X, h = gibbs_sweep(X, m, rng)
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
        base_diff = log_weight(a, m) - log_weight(b, m)
        shifted = CFParams(p.nu, p.u + 1.7, p.W)
        ms = cf_latent_model(shifted)
        shifted_diff = log_weight(a, ms) - log_weight(b, ms)
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
    """``train`` computes a block's unit weights in block passes, batches its
    statistics, computes disagreement from rank arrays and sums effective
    worths at the chain's objects only; the per-user loop with unit weights
    one partition at a time, the per-entry accumulator, the pair loop and
    full-catalog effective models gives the same bits."""

    @staticmethod
    def users(n_items=30, n_users=14, seed=0):
        rng = random.Random(seed)
        data = []
        for u in range(n_users):
            size = 2 if u == 3 else rng.randint(2, 9)  # a 2-item user: its rank rows are padded
            items = rng.sample(range(n_items), size)
            labels = [rng.randrange(size) for _ in items]
            blocks = [[x for x, b in zip(items, labels) if b == t] for t in sorted(set(labels))]
            data.append(from_blocks(blocks, n_items))
        # 25 tied items: the kernel splits the block through sample's set path (over 21 objects)
        data.insert(5, from_blocks([rng.sample(range(n_items), 25)], n_items))
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
        assert len(got) == len(want) == 2 * math.ceil(15 / block_size)
        for a, b in zip(got, want):
            assert {k: v for k, v in a.items() if k != "params"} == {k: v for k, v in b.items() if k != "params"}
            assert _bits(a["params"]) == _bits(b["params"])


    def test_bitwise_without_epochs(self):
        from helpers import reference_train

        cfg = TrainConfig(epochs=0, n_hidden=3, seed=11, init_scale=0.3)
        got, want = [], []
        assert _bits(train(self.users(), cfg, callback=got.append)) == _bits(
            reference_train(self.users(), cfg, callback=want.append))
        assert got == want == []


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

    LINES = ["osmrank-checkpoint 1", "n_items 2", "K 2", "nu -0.5", "u 0.1 0.2", "W 0.3 0.4", "W 0.5 0.6"]

    @pytest.mark.parametrize("line, text, message", [
        (2, "K 2", "'K', expected 'n_items'"),
        (4, "bogus -0.5", "'bogus', expected 'nu'"),
        (5, "zz 0.1 0.2", "'zz', expected 'u'"),
        (6, "QQ 0.3 0.4", "'QQ', expected 'W'"),
        (7, "K 2", "'K', expected 'W'"),  # a header line out of place
    ])
    @pytest.mark.parametrize("blank", [0, 2])
    def test_rejects_a_line_with_another_key(self, tmp_path, line, text, message, blank):
        # the error names the file's line, blank lines counted
        path = tmp_path / "c.ck"
        lines = self.LINES[:1] + [""] * blank + self.LINES[1:]
        path.write_text("\n".join(lines) + "\n")
        assert load_checkpoint(str(path)).W.tolist() == [[0.3, 0.4], [0.5, 0.6]]
        lines[line - 1 + blank] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == f"{path}: line {line + blank} is {message}"

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "c.ck"
        path.write_text("\n".join(self.LINES[:-1] + ["W 0.5"]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == f"{path}: checkpoint shapes do not match header"

    def test_rejects_shape_mismatch(self, tmp_path):
        p = random_params(3, 1, seed=12)
        path = tmp_path / "c.ck"
        save_checkpoint(str(path), p)
        text = path.read_text().replace("n_items 3", "n_items 4")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
