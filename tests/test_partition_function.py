import itertools
import math
import os
import random
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from osmrank import partition_function
from osmrank.combinatorics import EnumerationCapError, OrderedPartition, fubini
from osmrank.core import log_weight, uniform_pair_model
from osmrank.latent import LatentModel
from osmrank.partition_function import (
    AISConfig,
    ais_log_z,
    annealed_unnorm_log_prob,
    exact_distribution,
    exact_log_z,
    temperature_ladder,
)

from helpers import random_latent_model, random_matrix_model, reference_ais_log_weights
from oracles import log_joint_weight


def P(*blocks):
    return OrderedPartition.from_blocks(blocks, n_objects=max(x for b in blocks for x in b) + 1)


def uniform_latent(n, k):
    return LatentModel(uniform_pair_model(n), [uniform_pair_model(n) for _ in range(k)])


class TestExactLogZ:
    def test_uniform_n4(self):
        assert exact_log_z(uniform_pair_model(4)) == pytest.approx(math.log(75.0), abs=1e-12)

    def test_uniform_latent(self):
        # 3 states x 2^3 hidden configs, all weight 1
        assert exact_log_z(uniform_latent(2, 3)) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_single_object_any_model(self):
        m = random_latent_model(1, 4, seed=0)
        # only one partition exists and it has no pairs, so every Omega_k = 1
        assert exact_log_z(m) == pytest.approx(4.0 * math.log(2.0), abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            exact_log_z(uniform_pair_model(9))

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 4)])
    def test_latent_identity_vs_hidden_enumeration(self, n, k):
        m = random_latent_model(n, k, seed=n * 10 + k)
        from osmrank.combinatorics import enumerate_ordered_partitions

        logs = [
            log_joint_weight(X, np.array(h), m)
            for X in enumerate_ordered_partitions(n)
            for h in itertools.product([0, 1], repeat=k)
        ]
        brute = logsumexp(logs)
        assert exact_log_z(m) == pytest.approx(brute, rel=1e-9)


class TestExactDistribution:
    def test_uniform_probabilities(self):
        states, probs = exact_distribution(uniform_pair_model(3))
        assert len(states) == 13
        np.testing.assert_allclose(probs, 1.0 / 13.0)

    def test_matches_log_weights(self):
        m = random_matrix_model(4, seed=3)
        states, probs = exact_distribution(m)
        logs = np.array([log_weight(X, m) for X in states])
        expected = np.exp(logs - logsumexp(logs))
        np.testing.assert_allclose(probs, expected / expected.sum(), atol=1e-12)


class TestAnnealedUnnormLogProb:
    def test_tau_zero_uniform(self):
        m = random_matrix_model(4, seed=1)
        for X in [P([0, 1, 2, 3]), P([0], [1], [2], [3])]:
            assert annealed_unnorm_log_prob(X, 0.0, m) == 0.0

    def test_tau_one_recovers_target(self):
        m = random_matrix_model(4, seed=2)
        X = P([0, 2], [1, 3])
        assert annealed_unnorm_log_prob(X, 1.0, m) == pytest.approx(log_weight(X, m))

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
        states, _ = exact_distribution(m)
        X = max(states, key=lambda s: log_weight(s, m))
        assert log_weight(X, m) > 0
        taus = np.linspace(0.0, 1.0, 101)
        vals = [annealed_unnorm_log_prob(X, t, m) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 0.05 * abs(vals[-1]) + 0.01

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            annealed_unnorm_log_prob(P([0]), 1.5, uniform_pair_model(1))


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
        res = ais_log_z(m, AISConfig(n_temperatures=2, n_runs=8, seed=0))
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
        res = ais_log_z(m, AISConfig(n_temperatures=2000, n_runs=30, seed=2))
        assert abs(res.log_z_estimate - exact_log_z(m)) < 0.05

    def test_small_oracle_comparison_latent(self):
        m = random_latent_model(3, 2, seed=7)
        res = ais_log_z(m, AISConfig(n_temperatures=1500, n_runs=30, seed=3))
        assert abs(res.log_z_estimate - exact_log_z(m)) < 0.05

    def test_deterministic_under_seed(self):
        m = random_matrix_model(3, seed=8)
        cfg = AISConfig(n_temperatures=50, n_runs=5, seed=11)
        a = ais_log_z(m, cfg)
        b = ais_log_z(m, cfg)
        assert a.log_z_estimate == b.log_z_estimate
        np.testing.assert_array_equal(a.log_weights, b.log_weights)

    def test_ess_decreases_with_weight_variance(self):
        # same config, stronger potentials -> more weight spread -> lower ESS
        mild = random_matrix_model(4, seed=9, scale=0.3)
        strong = random_matrix_model(4, seed=9, scale=3.0)
        cfg = AISConfig(n_temperatures=60, n_runs=40, seed=4)
        ess_mild = ais_log_z(mild, cfg).effective_sample_size
        ess_strong = ais_log_z(strong, cfg).effective_sample_size
        assert ess_strong < ess_mild
        assert 0 < ess_strong <= 40.0
        assert 0 < ess_mild <= 40.0

    def test_unbiased_in_weight_domain_small(self):
        # light version of the acceptance check: mean of Z_hat / Z over
        # repeats within 3 standard errors of 1
        m = random_matrix_model(3, seed=10)
        log_z = exact_log_z(m)
        ratios = []
        for rep in range(30):
            res = ais_log_z(m, AISConfig(n_temperatures=40, n_runs=10, seed=100 + rep))
            ratios.append(math.exp(res.log_z_estimate - log_z))
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_geometric_schedule_works(self):
        m = random_matrix_model(3, seed=12)
        res = ais_log_z(
            m, AISConfig(n_temperatures=1000, n_runs=20, schedule="geometric", seed=5)
        )
        assert abs(res.log_z_estimate - exact_log_z(m)) < 0.1


def dies(*_):
    os._exit(1)


def sends_short(m, taus, steps, run_seeds, fd):
    with open(fd, "wb") as pipe:
        pipe.write(bytes(8 * (len(run_seeds) - 1)))


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

    @pytest.mark.parametrize("worker", [dies, sends_short], ids=["dies", "sends-short"])
    def test_failed_worker_runs_are_run_again(self, model, monkeypatch, worker):
        want = reference_ais_log_weights(model, self.cfg).tobytes()
        monkeypatch.setattr(partition_function, "_send_runs", worker)
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
