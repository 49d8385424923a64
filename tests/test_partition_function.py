import itertools
import math
import os
import random
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from osmrank import partition_function
from osmrank.combinatorics import EXACT_TERMS, EnumerationCapError, enumerate_ordered_partitions, fubini
from osmrank.core import log_weight
from osmrank.learning import CFParams
from osmrank.partition_function import AISConfig, ais_log_z, exact_inference, temperature_ladder

from helpers import block_of, random_latent_model, random_matrix_model, reference_ais_log_weights
from oracles import (
    LatentModel,
    annealed_unnorm_log_prob,
    as_latent,
    exact_distribution,
    exact_enumeration,
    exact_log_z,
    from_blocks,
    log_joint_weight,
    uniform_pair_model,
)


def P(*blocks):
    return from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


def uniform_latent(n, k):
    return LatentModel(uniform_pair_model(n), [uniform_pair_model(n) for _ in range(k)])


class TestExactLogZ:
    def test_uniform_n4(self):
        assert exact_log_z(as_latent(uniform_pair_model(4))) == pytest.approx(math.log(75.0), abs=1e-12)

    def test_uniform_latent(self):
        # 3 states x 2^3 hidden configs, all weight 1
        assert exact_log_z(uniform_latent(2, 3)) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_single_object_any_model(self):
        m = random_latent_model(1, 4, seed=0)
        # only one partition exists and it has no pairs, so every Omega_k = 1
        assert exact_log_z(m) == pytest.approx(4.0 * math.log(2.0), abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            exact_log_z(as_latent(uniform_pair_model(9)))
        with pytest.raises(EnumerationCapError):
            exact_distribution(as_latent(uniform_pair_model(9)))

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 4)])
    def test_latent_identity_vs_hidden_enumeration(self, n, k):
        m = random_latent_model(n, k, seed=n * 10 + k)
        logs = [
            log_joint_weight(X, np.array(h), m)
            for X in enumerate_ordered_partitions(n)
            for h in itertools.product([0, 1], repeat=k)
        ]
        brute = logsumexp(logs)
        assert exact_log_z(m) == pytest.approx(brute, rel=1e-9)


class TestExactDistribution:
    def test_uniform_probabilities(self):
        states, probs = exact_distribution(as_latent(uniform_pair_model(3)))
        assert len(states) == 13
        np.testing.assert_allclose(probs, 1.0 / 13.0)

    def test_matches_log_weights(self):
        m = random_matrix_model(4, seed=3)
        states, probs = exact_distribution(as_latent(m))
        logs = np.array([log_weight(X, m) for X in states])
        expected = np.exp(logs - logsumexp(logs))
        np.testing.assert_allclose(probs, expected / expected.sum(), atol=1e-12)


def random_cf(n, k, seed, scale=1.0):
    rng = np.random.default_rng([n, k, seed])
    return CFParams(rng.normal(-0.3, 0.5 * scale), rng.normal(0.0, 0.8 * scale, n),
                    rng.normal(0.0, 0.6 * scale, (n, k)))


def enumerated_marginals(m):
    """log Z, ``order[i, j]`` = P(i above j) and the upper triangle of
    ``tie``, from one ``exact_enumeration``, state by state."""
    n = m.n_objects
    log_z, states, probs = exact_enumeration(m)
    order, tie = np.zeros((n, n)), np.zeros((n, n))
    for X, p in zip(states, probs):
        ranks = block_of(X)
        r = np.array([ranks[i] for i in range(n)])
        order += p * (r[:, None] < r)
        tie += p * np.triu(r[:, None] == r, 1)
    return log_z, order, tie


class TestExactInference:
    """The subset DP against the enumeration oracles of ``tests/oracles.py``."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("k", [0, 1, 2, 3, "uniform"])
    def test_equals_the_enumeration_oracles(self, n, k):
        m = CFParams.zeros(n, 0) if k == "uniform" else random_cf(n, k, seed=0)
        log_z, order, tie = exact_inference(m)
        want_log_z, want_order, want_tie = enumerated_marginals(m)
        assert log_z == pytest.approx(want_log_z, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(order, want_order, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.triu(tie, 1), want_tie, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(tie), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 3])
    def test_no_objects(self, k):
        log_z, order, tie = exact_inference(CFParams(0.7, np.zeros(0), np.zeros((0, k))))
        assert log_z == pytest.approx(k * math.log(2.0), abs=1e-15)
        assert order.shape == tie.shape == (0, 0)

    @pytest.mark.parametrize("scale", [1e8, 1e16, 1e100, 1e300])
    def test_parameters_near_the_float_bound_give_probabilities(self, scale):
        # the flow of the chain is a sum of probabilities: no warning, no value
        # past 1, and P(i above j) + P(j above i) + P(i ~ j) = 1 at any scale
        for n, k in [(3, 2), (5, 1), (6, 0)]:
            t = min(scale, sys.float_info.max / 4 / ((k + 1) * n**2) * 0.999)
            rng = np.random.default_rng([n, k])
            m = CFParams(rng.uniform(-t, t), rng.uniform(-t, t, n), rng.uniform(-t, t, (n, k)))
            log_z, order, tie = exact_inference(m)
            assert math.isfinite(log_z)
            assert order.min() >= 0.0 and tie.min() >= 0.0
            tie = np.triu(tie, 1) + np.triu(tie, 1).T
            np.testing.assert_allclose(order + order.T + tie, 1.0 - np.eye(n), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n,k", [(15, 0), (10**6, 0), (3, 20), (0, 10**6)])
    def test_refuses_past_the_term_bound(self, n, k):
        # 3^n 2^K past EXACT_TERMS: by n alone, or by K at a small n
        with pytest.raises(EnumerationCapError) as exc:
            exact_inference(CFParams.zeros(n, k))
        assert str(exc.value) == (f"exact inference at n={n}, K={k} refused: 3^n 2^K terms exceed "
                                  f"the bound {EXACT_TERMS}")

    def test_ais_lands_near_the_exact_log_z_at_n10(self):
        # a size past the enumeration's cap; the tolerance is 3 standard
        # errors of the AIS estimate, from the spread of its run weights
        m = random_cf(10, 2, seed=1, scale=0.5)
        res = ais_log_z(m, AISConfig(n_temperatures=600, n_runs=40, seed=6))
        w = np.exp(res.log_weights - res.log_weights.max())
        stderr = w.std(ddof=1) / w.mean() / math.sqrt(len(w))
        assert abs(res.log_z_estimate - exact_inference(m)[0]) < 3 * stderr


class TestAnnealedUnnormLogProb:
    def test_tau_zero_uniform(self):
        m = random_matrix_model(4, seed=1)
        for X in [P([0, 1, 2, 3]), P([0], [1], [2], [3])]:
            assert annealed_unnorm_log_prob(X, 0.0, as_latent(m)) == 0.0

    def test_tau_one_recovers_target(self):
        m = random_matrix_model(4, seed=2)
        X = P([0, 2], [1, 3])
        assert annealed_unnorm_log_prob(X, 1.0, as_latent(m)) == pytest.approx(log_weight(X, m))

    def test_tau_zero_latent(self):
        m = random_latent_model(3, 5, seed=3)
        X = P([0, 1], [2])
        assert annealed_unnorm_log_prob(X, 0.0, m) == pytest.approx(5.0 * math.log(2.0))

    def test_tau_one_latent_is_marginal(self):
        m = random_latent_model(3, 2, seed=4)
        X = P([0], [1, 2])
        expected = log_weight(X, m.base)
        for k in range(2):
            expected += math.log1p(math.exp(m.log_omegas(X)[k]))
        assert annealed_unnorm_log_prob(X, 1.0, m) == pytest.approx(expected, abs=1e-10)

    def test_monotone_and_continuous_when_positive(self):
        m = random_matrix_model(4, seed=5)
        # pick a state with positive log weight
        states, _ = exact_distribution(as_latent(m))
        X = max(states, key=lambda s: log_weight(s, m))
        assert log_weight(X, m) > 0
        taus = np.linspace(0.0, 1.0, 101)
        vals = [annealed_unnorm_log_prob(X, t, as_latent(m)) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 0.05 * abs(vals[-1]) + 0.01

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            annealed_unnorm_log_prob(P([0]), 1.5, as_latent(uniform_pair_model(1)))


class TestTemperatureLadder:
    def test_linear(self):
        taus = temperature_ladder(AISConfig(n_temperatures=4, n_runs=1))
        np.testing.assert_allclose(taus, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_geometric(self):
        taus = temperature_ladder(AISConfig(n_temperatures=10, n_runs=1, schedule="geometric"))
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(1.0)
        assert np.all(np.diff(taus) > 0)
        assert len(taus) == 11

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AISConfig(n_temperatures=1, n_runs=1)
        with pytest.raises(ValueError):
            AISConfig(n_temperatures=10, n_runs=0)
        with pytest.raises(ValueError):
            AISConfig(n_temperatures=10, n_runs=1, schedule="cosine")

    def test_rejects_negative_inner_steps(self):
        with pytest.raises(ValueError):
            AISConfig(n_temperatures=10, n_runs=1, inner_steps=-3)
        assert AISConfig(n_temperatures=10, n_runs=1, inner_steps=0).inner_steps == 0


class TestAisLogZ:
    def test_degenerate_uniform_anneal_is_exact(self):
        # uniform target: every weight is exactly 0 in log domain
        m = uniform_pair_model(5)
        res = ais_log_z(as_latent(m), AISConfig(n_temperatures=2, n_runs=8, seed=0))
        np.testing.assert_array_equal(res.log_weights, 0.0)
        assert res.log_z_estimate == pytest.approx(math.log(fubini(5)), abs=1e-12)
        assert res.effective_sample_size == pytest.approx(8.0)

    def test_degenerate_uniform_latent(self):
        m = uniform_latent(3, 2)
        res = ais_log_z(m, AISConfig(n_temperatures=2, n_runs=4, seed=1))
        np.testing.assert_array_equal(res.log_weights, 0.0)
        assert res.log_z_estimate == pytest.approx(math.log(fubini(3) * 4), abs=1e-12)
        assert res.log_z0 == pytest.approx(math.log(fubini(3)) + 2 * math.log(2.0))

    def test_small_oracle_comparison_osm(self):
        m = random_matrix_model(4, seed=6)
        res = ais_log_z(as_latent(m), AISConfig(n_temperatures=2000, n_runs=30, seed=2))
        assert abs(res.log_z_estimate - exact_log_z(as_latent(m))) < 0.05

    def test_small_oracle_comparison_latent(self):
        m = random_latent_model(3, 2, seed=7)
        res = ais_log_z(m, AISConfig(n_temperatures=1500, n_runs=30, seed=3))
        assert abs(res.log_z_estimate - exact_log_z(m)) < 0.05

    def test_deterministic_under_seed(self):
        m = random_matrix_model(3, seed=8)
        cfg = AISConfig(n_temperatures=50, n_runs=5, seed=11)
        a = ais_log_z(as_latent(m), cfg)
        b = ais_log_z(as_latent(m), cfg)
        assert a.log_z_estimate == b.log_z_estimate
        np.testing.assert_array_equal(a.log_weights, b.log_weights)

    def test_ess_decreases_with_weight_variance(self):
        # same config, stronger potentials -> more weight spread -> lower ESS
        mild = random_matrix_model(4, seed=9, scale=0.3)
        strong = random_matrix_model(4, seed=9, scale=3.0)
        cfg = AISConfig(n_temperatures=60, n_runs=40, seed=4)
        ess_mild = ais_log_z(as_latent(mild), cfg).effective_sample_size
        ess_strong = ais_log_z(as_latent(strong), cfg).effective_sample_size
        assert ess_strong < ess_mild
        assert 0 < ess_strong <= 40.0
        assert 0 < ess_mild <= 40.0

    def test_unbiased_in_weight_domain_small(self):
        # light version of the acceptance check: mean of Z_hat / Z over
        # repeats within 3 standard errors of 1
        m = random_matrix_model(3, seed=10)
        log_z = exact_log_z(as_latent(m))
        ratios = []
        for rep in range(30):
            res = ais_log_z(as_latent(m), AISConfig(n_temperatures=40, n_runs=10, seed=100 + rep))
            ratios.append(math.exp(res.log_z_estimate - log_z))
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_geometric_schedule_works(self):
        m = random_matrix_model(3, seed=12)
        res = ais_log_z(
            as_latent(m), AISConfig(n_temperatures=1000, n_runs=20, schedule="geometric", seed=5)
        )
        assert abs(res.log_z_estimate - exact_log_z(as_latent(m))) < 0.1


def dies():
    os._exit(1)


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


class TestAisWorkers:
    """The runs spread over forked workers: same bytes, no process left."""

    cfg = AISConfig(n_temperatures=6, n_runs=5, seed=3)

    @pytest.fixture
    def model(self, monkeypatch):
        monkeypatch.setattr(partition_function, "_cpu_count", lambda: 3)
        return random_latent_model(4, 2, seed=13)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_outlives_the_call(self, model, monkeypatch):
        ais_log_z(model, self.cfg)
        self.assert_no_child_left()
        parent, run = os.getpid(), partition_function._ais_run

        def parent_fails(*args):
            if os.getpid() == parent:
                raise RuntimeError("run failed in the parent")
            time.sleep(60)  # the workers are still running when the parent raises
            return run(*args)

        monkeypatch.setattr(partition_function, "_ais_run", parent_fails)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="run failed in the parent"):
            ais_log_z(model, self.cfg)
        assert time.monotonic() - start < 30  # the workers were stopped, not waited for
        self.assert_no_child_left()

    @pytest.mark.parametrize("death", [dies, killed], ids=["dies", "killed"])
    def test_failed_worker_runs_are_run_again(self, model, monkeypatch, death):
        # each child ends inside its share, by a non-zero exit or a signal
        want = reference_ais_log_weights(model, self.cfg).tobytes()
        parent, run = os.getpid(), partition_function._ais_run

        def child_dies(*args):
            if os.getpid() != parent:
                death()
            return run(*args)

        monkeypatch.setattr(partition_function, "_ais_run", child_dies)
        assert ais_log_z(model, self.cfg).log_weights.tobytes() == want
        self.assert_no_child_left()

    def test_worker_errors_are_the_serial_errors(self, model, monkeypatch):
        # the failing run is a worker's: its share, run again here, raises
        def fails_on_run_1(m, taus, steps, run_seed):
            if run_seed == run_seeds[1]:
                raise ValueError("run 1 failed")
            return run(m, taus, steps, run_seed)

        seed_src, run = random.Random(self.cfg.seed), partition_function._ais_run
        run_seeds = [seed_src.randrange(2**63) for _ in range(self.cfg.n_runs)]
        monkeypatch.setattr(partition_function, "_ais_run", fails_on_run_1)
        with pytest.raises(ValueError, match="run 1 failed"):
            ais_log_z(model, self.cfg)
        self.assert_no_child_left()

    def test_run_seeds_are_replayed_not_held(self, monkeypatch):
        # a list of R run seeds holds ~44 bytes a run; the weights take 8, in a mapping
        monkeypatch.setattr(partition_function, "_cpu_count", lambda: 1)
        m, cfg = as_latent(uniform_pair_model(1)), AISConfig(n_temperatures=2, n_runs=5000)
        tracemalloc.start()
        try:
            ais_log_z(m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * cfg.n_runs
