"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Heavy Monte-Carlo runs use fixed seeds, so every check is reproducible.
Every test here carries the ``acceptance`` marker, so `pytest -m "not
acceptance"` is the fast loop; plain `pytest` still runs them.
"""

import itertools
import math
import os
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import logsumexp

from osmrank.combinatorics import (
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
)
from osmrank.core import log_weight
from osmrank.latent import hidden_posterior
from osmrank.learning import (
    CFParams,
    TrainConfig,
    cf_latent_model,
    estimate_gradient,
    train,
)
from osmrank.metrics import err, ndcg_at
from osmrank.partition_function import AISConfig, ais_log_z
from osmrank.pipeline import (
    SplitSpec,
    complete_rank,
    entropy_filter,
    grade_ratings,
    load_ratings,
    train_test_split,
)
from osmrank.sampler import advance_partition

from helpers import block_of, gibbs_sweep, random_latent_model, random_matrix_model
from oracles import (
    LogLinearParams,
    as_latent,
    exact_distribution,
    exact_gradient,
    exact_log_likelihood,
    exact_log_z,
    fubini_asymptotic,
    log_joint_weight,
    loglinear_pair_model,
    reconstruct_rank,
    sample_partitions_exact,
    sufficient_stats,
    transition_matrix,
    uniform_pair_model,
)

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[ACCEPTANCE] criterion {num:2d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[ACCEPTANCE] criterion {num:2d} PASS: {title} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s budget"


def toy_loglinear_model(n, rng):
    """Random log-linear model over a 'constant + per-pair indicator' basis."""
    tie_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    order_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    def tie_indicator(a, b):
        return lambda i, j: 1.0 if (i, j) == (a, b) or (j, i) == (a, b) else 0.0

    def order_indicator(a, b):
        return lambda i, j: 1.0 if (i, j) == (a, b) else 0.0

    params = LogLinearParams(
        alpha=rng.uniform(-1.5, 1.5, 1 + len(tie_pairs)),
        beta=rng.uniform(-1.5, 1.5, 1 + len(order_pairs)),
        tie_features=[lambda i, j: 1.0] + [tie_indicator(a, b) for a, b in tie_pairs],
        order_features=[lambda i, j: 1.0] + [order_indicator(a, b) for a, b in order_pairs],
    )
    return loglinear_pair_model(params, n)


def exact_pi(m):
    states = list(enumerate_ordered_partitions(m.n_objects))
    logs = np.array([log_weight(X, m) for X in states])
    pi = np.exp(logs - logs.max())
    return states, pi / pi.sum()


# ---------------------------------------------------------------------------
# shared synthetic collaborative-ranking world for criteria 7 and 8: a true
# K=2 model with four balanced taste profiles (orthogonal sign patterns,
# worths centered so no profile dominates the state space)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_cf():
    s = 1.5
    w1 = s * np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
    w2 = s * np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=float)
    rng = np.random.default_rng(5)
    u_true = -(w1 + w2) / 2 + rng.normal(0, 0.45, 8)
    p_true = CFParams(0.2, u_true, np.column_stack([w1, w2]))
    data = sample_partitions_exact(p_true, 500, np.random.default_rng(7))
    return p_true, data[:400], data[400:]


def restrict_partition(X, keep):
    blocks = [tuple(i for i in b if i in keep) for b in X.blocks]
    return OrderedPartition(tuple(b for b in blocks if b), X.n_objects)


def test_criterion_01_combinatorics_oracle():
    with criterion(1, "fubini vs enumeration (n<=6); asymptotic ratio", 5):
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_ordered_partitions(n)) == fubini(n)
        assert 0.99 <= fubini(10) / fubini_asymptotic(10) <= 1.01


def test_criterion_02_kernel_exact():
    with criterion(2, "exact detailed balance (1e-10) and stationarity (1e-8)", 60):
        rng = np.random.default_rng(2024)
        for model_idx in range(5):
            for n in (2, 3, 4):
                m = toy_loglinear_model(n, rng)
                states, K = transition_matrix(m)
                assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-12
                _, pi = exact_pi(m)
                flux = pi[:, None] * K
                assert np.abs(flux - flux.T).max() < 1e-10
                vals, vecs = np.linalg.eig(K.T)
                lead = np.argmin(np.abs(vals - 1.0))
                v = np.real(vecs[:, lead])
                v = v / v.sum()
                assert np.abs(v - pi).max() < 1e-8


def test_criterion_03_kernel_sampled():
    with criterion(3, "empirical TV: n=5 random < 0.02, n=4 uniform < 0.01 (1e6 steps)",
                   2 * 60):
        m = random_matrix_model(5, seed=17, scale=1.0)
        states, probs = exact_distribution(as_latent(m))
        idx = {X.blocks: i for i, X in enumerate(states)}
        counts = np.zeros(len(states))
        X, rng = OrderedPartition.singletons(5), random.Random(0)
        steps = 1_000_000
        for _ in range(steps):
            X = advance_partition(X, m, rng, 1)
            counts[idx[X.blocks]] += 1
        tv = 0.5 * np.abs(counts / steps - probs).sum()
        assert tv < 0.02, f"n=5 TV {tv}"

        m4 = uniform_pair_model(4)
        states4, probs4 = exact_distribution(as_latent(m4))
        idx4 = {X.blocks: i for i, X in enumerate(states4)}
        counts4 = np.zeros(len(states4))
        X, rng = OrderedPartition.singletons(4), random.Random(1)
        for _ in range(steps):
            X = advance_partition(X, m4, rng, 1)
            counts4[idx4[X.blocks]] += 1
        tv4 = 0.5 * np.abs(counts4 / steps - probs4).sum()
        assert tv4 < 0.01, f"n=4 uniform TV {tv4}"


def test_criterion_04_latent_joint_sampler():
    with criterion(4, "latent joint TV < 0.02 (1e6 sweeps); posterior vs brute force 1e-10",
                   2 * 60):
        m = random_latent_model(3, 2, seed=23, scale=1.0)
        states = list(enumerate_ordered_partitions(3))
        configs = list(itertools.product([0, 1], repeat=2))
        logs = np.array(
            [[log_joint_weight(X, np.array(h), m) for h in configs] for X in states]
        )
        probs = np.exp(logs - logsumexp(logs))
        probs /= probs.sum()

        # closed-form posterior equals brute-force hidden marginalization
        for si, X in enumerate(states):
            post = hidden_posterior(X, m)
            row = probs[si] / probs[si].sum()
            for unit in range(2):
                brute = sum(row[ci] for ci, h in enumerate(configs) if h[unit])
                assert abs(post[unit] - brute) < 1e-10

        idx = {
            (X.blocks, h): (si, ci)
            for si, X in enumerate(states)
            for ci, h in enumerate(configs)
        }
        rng = random.Random(2)
        X = OrderedPartition.singletons(3)
        counts = np.zeros_like(probs)
        sweeps = 1_000_000
        for _ in range(sweeps):
            X, h = gibbs_sweep(X, m, rng)
            si, ci = idx[(X.blocks, tuple(h))]
            counts[si, ci] += 1
        tv = 0.5 * np.abs(counts / sweeps - probs).sum()
        assert tv < 0.02, f"joint TV {tv}"


def test_criterion_05_ais():
    with criterion(5, "AIS |logZ_hat - logZ| < 0.05 (S=1e4, R=100); unbiasedness 3 SE",
                   5 * 60):
        m = random_latent_model(4, 2, seed=0, scale=1.0)
        exact = exact_log_z(m)
        res = ais_log_z(m, AISConfig(n_temperatures=10_000, n_runs=100, seed=1))
        assert abs(res.log_z_estimate - exact) < 0.05, (res.log_z_estimate, exact)
        assert 0 < res.effective_sample_size <= 100

        small = random_matrix_model(3, seed=10)
        log_z_small = exact_log_z(as_latent(small))
        ratios = []
        for rep in range(50):
            r = ais_log_z(as_latent(small), AISConfig(n_temperatures=150, n_runs=12, seed=500 + rep))
            ratios.append(math.exp(r.log_z_estimate - log_z_small))
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) < 3 * se, (ratios.mean(), se)


def test_criterion_06_gradients():
    with criterion(6, "sufficient stats vs finite differences (1e-6); "
                      "chain gradient vs exact within 2%", 60):
        # finite differences of log joint weight at 20 random triples
        rng = random.Random(0)
        from osmrank.combinatorics import sample_uniform_ordered_partition

        n, k = 4, 2
        for trial in range(20):
            X = sample_uniform_ordered_partition(n, rng)
            h = np.array([rng.randrange(2) for _ in range(k)])
            prng = np.random.default_rng(trial)
            p = CFParams(
                prng.uniform(-0.6, 0.6),
                prng.uniform(-0.6, 0.6, n),
                prng.uniform(-0.6, 0.6, (n, k)),
            )
            stats = sufficient_stats(X, h, n, k)
            grad = np.concatenate([[stats.d_nu], stats.d_u, stats.d_W.ravel()])
            vec = np.concatenate([[p.nu], p.u, p.W.ravel()])
            step = 1e-5
            for coord in range(len(vec)):
                plus, minus = vec.copy(), vec.copy()
                plus[coord] += step
                minus[coord] -= step
                pp = CFParams(plus[0], plus[1 : 1 + n], plus[1 + n :].reshape(n, k))
                pm = CFParams(minus[0], minus[1 : 1 + n], minus[1 + n :].reshape(n, k))
                fd = (
                    log_joint_weight(X, h, cf_latent_model(pp))
                    - log_joint_weight(X, h, cf_latent_model(pm))
                ) / (2 * step)
                assert abs(grad[coord] - fd) < 1e-6

        # stochastic gradient matches the enumeration oracle within 2% per
        # coordinate (data chosen so every coordinate is well away from 0)
        p = CFParams(0.4, np.array([0.6, -0.5, 0.2]), np.array([[0.8], [-0.6], [0.3]]))
        data = [
            OrderedPartition(((1,), (0,), (2,)), 3),
            OrderedPartition(((1,), (0, 2)), 3),
            OrderedPartition(((1,), (0, 2)), 3),
        ]
        exact = exact_gradient(p, data)
        exact_vec = np.concatenate([[exact.d_nu], exact.d_u, exact.d_W.ravel()])
        assert np.abs(exact_vec).min() > 0.5  # relative tolerance is meaningful
        model = cf_latent_model(p)
        observed = [(X, hidden_posterior(X, model)) for X in data]
        crng = random.Random(0)
        Xc = OrderedPartition.singletons(3)
        samples = []
        for sweep in range(150_000):
            Xc, hc = gibbs_sweep(Xc, model, crng)
            if sweep >= 5_000:
                samples.append((Xc, hc))
        est = estimate_gradient(observed, samples, 3, 1)
        est_vec = np.concatenate([[est.d_nu], est.d_u, est.d_W.ravel()])
        rel = np.abs(est_vec - exact_vec) / np.abs(exact_vec)
        assert rel.max() < 0.02, rel


def test_criterion_07_learning_end_to_end(synthetic_cf):
    with criterion(7, "held-out LL rises over first 10 blocks; NDCG@5 beats zero model by 0.05",
                   10 * 60):
        p_true, train_users, held = synthetic_cf

        snapshots = []
        cfg = TrainConfig(
            learning_rate=0.01, block_size=100, chain_steps_per_update=1,
            epochs=3, n_hidden=2, seed=11,
        )
        train(train_users, cfg, callback=lambda rec: snapshots.append(rec["params"]))
        assert len(snapshots) >= 10
        per_block = [exact_log_likelihood(p, held) for p in snapshots[:10]]
        for a, b in zip(per_block, per_block[1:]):
            diff = b - a
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() >= -se, (diff.mean(), se)

        # rank completion on held-out users: seen = items 0-2, score 3-7
        final = train(train_users, TrainConfig(
            learning_rate=0.01, block_size=100, epochs=12, n_hidden=2, seed=11))
        seen_items, unseen = set(range(3)), list(range(3, 8))

        def mean_ndcg(params):
            m = cf_latent_model(params)
            vals = []
            for X in held:
                seen = restrict_partition(X, seen_items)
                ranking = complete_rank(seen, unseen, m)
                ranks = block_of(X)
                rel = {j: X.n_blocks - 1 - ranks[j] for j in unseen}
                vals.append(ndcg_at([rel[j] for j in ranking.items], 5))
            return float(np.mean(vals))

        nd_trained = mean_ndcg(final)
        nd_zero = mean_ndcg(CFParams.zeros(8, 2))
        assert nd_trained > nd_zero + 0.05, (nd_trained, nd_zero)


def test_criterion_08_reconstruction_vs_hidden_size(synthetic_cf):
    with criterion(8, "reconstruction >= 90% of training pair orders at K=8; "
                      "accuracy non-decreasing in K", 10 * 60):
        _, train_users, _ = synthetic_cf

        def accuracy(params):
            m = cf_latent_model(params)
            accs = []
            for X in train_users:
                post = hidden_posterior(X, m)
                ranking = reconstruct_rank(post, range(8), m)
                pos = {j: r for r, j in enumerate(ranking.items)}
                ranks = block_of(X)
                good = total = 0
                for i in range(8):
                    for j in range(8):
                        if i != j and ranks[i] < ranks[j]:
                            total += 1
                            good += pos[i] < pos[j]
                accs.append(good / total)
            return np.array(accs)

        accs = {}
        for k in (1, 2, 4, 8):
            cfg = TrainConfig(
                learning_rate=0.02, block_size=100, epochs=120,
                n_hidden=k, seed=13, init_scale=0.15,
            )
            accs[k] = accuracy(train(train_users, cfg))

        assert accs[8].mean() >= 0.90, accs[8].mean()
        ladder = [1, 2, 4, 8]
        for lo, hi in zip(ladder, ladder[1:]):
            diff = accs[hi] - accs[lo]
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() >= -se, (lo, hi, diff.mean(), se)


def test_criterion_09_metrics_exact():
    with criterion(9, "NDCG/ERR hand-derived values exact to 1e-12", 60):
        assert abs(ndcg_at([5, 4, 3, 2, 1], 5) - 1.0) < 1e-12
        assert abs(ndcg_at([0, 5], 2) - 1.0 / math.log2(3.0)) < 1e-12
        assert abs(ndcg_at([3, 3, 3], 3) - 1.0) < 1e-12
        assert abs(err([5]) - 15.0 / 16.0) < 1e-12
        assert abs(err([1]) - 0.0) < 1e-12
        assert abs(err([5, 5]) - 0.966796875) < 1e-12


def test_criterion_10_pipeline_protocol(tmp_path):
    with criterion(10, "entropy filter halves items; split drops <20-rating users; "
                       "segment grading", 10):
        rng = random.Random(0)
        n_items = 60
        scale_values = [0.5 * k for k in range(1, 11)]
        path = tmp_path / "synth.dat"
        expected_counts = {}
        with open(path, "w") as fh:
            for user in range(1000):
                count = 12 + user % 20  # 12..31 ratings per user
                expected_counts[user] = count
                items = rng.sample(range(n_items), count)
                for it in items:
                    fh.write(f"{user}::{it}::{rng.choice(scale_values)}::0\n")

        ds = grade_ratings(load_ratings(str(path)))
        # grading maps the half-point scale onto grades 1..5 per the
        # equal-length-segment table
        expected_grade = {0.5: 1, 1.0: 1, 1.5: 2, 2.0: 2, 2.5: 3, 3.0: 3,
                          3.5: 4, 4.0: 4, 4.5: 5, 5.0: 5}
        for r, g in zip(ds.ratings.tolist(), ds.grades.tolist()):
            assert expected_grade[r] == g

        filtered = entropy_filter(ds)
        assert filtered.n_items == n_items - n_items // 2

        # the split drops exactly the users with < 20 ratings (post filter)
        post_counts = Counter(filtered.user_ids[filtered.users].tolist())
        expected_kept = {u for u, c in post_counts.items() if c >= 20}
        train_ds, test_ds = train_test_split(
            filtered, SplitSpec(n_train=10, min_ratings=20, seed=1)
        )
        kept = set(train_ds.user_ids[train_ds.users].tolist())
        assert kept == expected_kept
        assert kept == set(test_ds.user_ids[test_ds.users].tolist())
        # per kept user: exactly 10 train records, the rest test
        train_counts = Counter(train_ds.user_ids[train_ds.users].tolist())
        test_counts = Counter(test_ds.user_ids[test_ds.users].tolist())
        for u in kept:
            assert train_counts[u] == 10
            assert test_counts[u] == post_counts[u] - 10


@pytest.mark.skipif(
    "OSM_MOVIELENS" not in os.environ,
    reason="set OSM_MOVIELENS to a MovieLens ::-format ratings file to enable",
)
def test_criterion_11_real_data_smoke(tmp_path):
    with criterion(11, "real-data smoke: train + eval complete, metrics in (0,1)", 24 * 3600):
        from osmrank.cli import main

        source = os.environ["OSM_MOVIELENS"]
        sample = tmp_path / "subsample.dat"
        users_seen = {}
        with open(source) as src, open(sample, "w") as dst:
            for line in src:
                user = line.split("::", 1)[0]
                if user not in users_seen:
                    if len(users_seen) == 2000:
                        continue
                    users_seen[user] = True
                dst.write(line)
        ck = tmp_path / "ml.ck"
        rc = main(["train", "--data", str(sample), "--n-train", "10", "--hidden", "10",
                   "--epochs", "1", "--seed", "0", "--out", str(ck),
                   "--log", str(tmp_path / "ml.log")])
        assert rc == 0
        report = tmp_path / "ml_report.txt"
        rc = main(["eval", "--data", str(sample), "--n-train", "10", "--seed", "0",
                   "--model", str(ck), "--metrics", "ndcg@5,err",
                   "--out", str(report)])
        assert rc == 0
        for line in report.read_text().splitlines():
            if line.startswith("model="):
                fields = dict(kv.split("=", 1) for kv in line.split())
                assert 0.0 < float(fields["mean"]) < 1.0
