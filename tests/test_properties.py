"""Property-based checks of the worth latent model and the training
statistics against their definitions and the per-entry oracles."""

import itertools
import math
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    by_user,
    reference_accumulate,
    reference_ais_log_weights,
    reference_build_dataset,
    reference_disagreement,
    reference_effective_model,
    reference_entropy_filter,
    reference_train_test_split,
    reference_unit_weights,
    reference_user_partitions,
    reference_worth_features,
    walk_ranking,
)
from oracles import (
    LatentModel,
    MatrixPairModel,
    annealed_unnorm_log_prob,
    covers_universe,
    exact_log_z,
    from_blocks,
    local_ratio,
    log_joint_weight,
    pair_table,
    plain_model,
    scaled,
    sigmoid,
    tables,
    unit_models,
)
from osmrank import partition_function
from osmrank.combinatorics import OrderedPartition, enumerate_ordered_partitions, sample_uniform_ordered_partition
from osmrank.core import log_ratio_merge, log_ratio_split, log_weight, worth_features
from osmrank.latent import (
    effective_pair_model,
    hidden_posterior,
    sample_hidden,
)
from osmrank.learning import CFParams, _accumulate, _disagreements, _rank_rows, pairwise_disagreement
from osmrank.partition_function import (
    AISConfig,
    _softplus,
    ais_log_z,
    temperature_ladder,
)
from osmrank.pipeline import (
    SplitSpec,
    _build_dataset,
    _odd_colon_run,
    _ranked_metric_rows,
    _scored_test_records,
    _stable_order,
    complete_rank,
    entropy_filter,
    evaluate_ranking,
    grade_ratings,
    parse_metrics,
    train_test_split,
    user_partitions,
)
from osmrank.sampler import advance_partition

worths = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def worth_latent_cases(draw):
    """A worth latent model over a catalog, a partition of part of the
    catalog (the seen items), the unseen rest and a hidden state."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, 4))
    m = CFParams(draw(worths), draw(arrays(float, n, elements=worths)),
                 draw(arrays(float, (n, k), elements=worths)))
    items = draw(st.permutations(range(n)))
    n_seen = draw(st.integers(1, n - 1))
    labels = draw(st.lists(st.integers(0, n_seen - 1), min_size=n_seen, max_size=n_seen))
    blocks = [[i for i, b in zip(items, labels) if b == t] for t in sorted(set(labels))]
    X = from_blocks(blocks, n)
    h = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.int8)
    return m, X, items[n_seen:], h


@given(worth_latent_cases())
def test_worth_latent_model_matches_its_definitions(case):
    m, X, unseen, h = case
    close = dict(rel=1e-12, abs=1e-9)
    hidden = unit_models(m)
    assert m.log_omegas(X).tolist() == pytest.approx([log_weight(X, hm) for hm in hidden], **close)
    assert log_weight(X, effective_pair_model(h, m)) == pytest.approx(log_joint_weight(X, h, m), **close)

    active = np.flatnonzero(h).tolist()
    assert np.array_equal(effective_pair_model(h, m).u, m.u + sum(m.W[:, k] for k in active))

    # score(j) = sum_{i in seen} [log psi(j > i) + sum_k p_k log psi_k(j > i)] on the tables
    mats = LatentModel(MatrixPairModel(*tables(m)), [MatrixPairModel(*tables(hm)) for hm in hidden])
    p = hidden_posterior(X, mats)
    order = mats.base.order + sum(pk * hm.order for pk, hm in zip(p, mats.hidden))
    seen = list(X.objects)
    ranking = complete_rank(X, unseen, m)
    assert sorted(ranking.items) == sorted(unseen)
    for j, score in zip(ranking.items, ranking.scores):
        assert score == pytest.approx(order[j, seen].sum(), **close)


@st.composite
def partitions(draw, n, objects=None):
    """An ordered partition of ``objects`` (default: a drawn subset of
    range(n), possibly empty) in a catalog of n objects."""
    if objects is None:
        objects = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    labels = draw(st.lists(st.integers(0, max(0, len(objects) - 1)), min_size=len(objects),
                           max_size=len(objects)))
    blocks = [[x for x, b in zip(objects, labels) if b == t] for t in sorted(set(labels))]
    return from_blocks(blocks, n)


@st.composite
def accumulate_cases(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 12))  # past 8 units, h.sum() is numpy's pairwise sum
    binary = draw(st.booleans())
    h = st.integers(0, 1) if binary else st.floats(-2.0, 2.0, allow_nan=False)
    entries = draw(st.lists(st.tuples(partitions(n), st.lists(h, min_size=k, max_size=k)), max_size=8))
    return n, k, [(X, np.array(hs, dtype=np.int8 if binary else float)) for X, hs in entries]


@given(accumulate_cases())
def test_batched_accumulate_is_the_per_entry_loop(case):
    n, k, entries = case
    d_nu, d_u, d_W = _accumulate(entries, n, k)
    r_nu, r_u, r_W = reference_accumulate(entries, n, k)
    assert np.float64(d_nu).tobytes() == np.float64(r_nu).tobytes()
    assert d_u.tobytes() == r_u.tobytes()
    assert d_W.tobytes() == r_W.tobytes()


@st.composite
def partition_pairs(draw):
    """Row pairs of partitions over the same objects, of mixed sizes."""
    n = draw(st.integers(1, 12))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(partitions(n))
        objects = draw(st.permutations(list(a.objects)))
        pairs.append((a, draw(partitions(n, objects))))
    return pairs


halves = st.integers(-8, 8).map(lambda i: i / 2)


@given(st.integers(1, 8), st.integers(0, 3), st.data())
def test_cf_params_base_and_effective_models_are_their_pair_tables(n, k, data):
    # half-integer parameters: every pair sum and closed form below is exact, so they agree bit for bit
    m = CFParams(data.draw(halves), np.array(data.draw(st.lists(halves, min_size=n, max_size=n))),
                 np.array(data.draw(st.lists(halves, min_size=n * k, max_size=n * k)), dtype=float).reshape(n, k))
    X, table = data.draw(partitions(n)), pair_table(m)
    assert log_weight(X, m) == log_weight(X, table)
    objects = worth_features(X)[1].tolist()
    ratio = m.split_ratio(objects)
    assert (ratio.nu, ratio.worths) == (m.nu, dict(zip(objects, m.u[objects].tolist())))
    for t, block in enumerate(X.blocks):
        for cut in range(1, len(block)):
            assert local_ratio(ratio, block[:cut], block[cut:]) == log_ratio_split(
                X, t, (block[:cut], block[cut:]), table)
        if t + 1 < X.n_blocks:
            assert -local_ratio(ratio, block, X.blocks[t + 1]) == log_ratio_merge(X, t, table)
    # the effective model is a K = 0 CFParams with the tables of the oracle's effective model
    h = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.int8)
    eff = effective_pair_model(h, m)
    assert isinstance(eff, CFParams) and eff.n_hidden == 0
    want = LatentModel(table, [pair_table(hm) for hm in unit_models(m)]).effective(np.flatnonzero(h).tolist())
    off = ~np.eye(n, dtype=bool)
    for got, ref in zip(tables(eff), tables(want)):
        assert got[off].tolist() == ref[off].tolist()


@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_cf_params_log_weight_is_the_left_fold(n, seed, data):
    # normal draws use every bit: the base term is nu * pairs plus the terms folded in block order
    rng = np.random.default_rng(seed)
    m = CFParams(rng.normal(), rng.normal(size=n), rng.normal(size=(n, 2)))
    X = data.draw(partitions(n))
    pairs, items, coef = reference_worth_features(X)
    total = 0.0
    for term in (m.u[items] * coef).tolist():
        total += term
    assert np.float64(log_weight(X, m)).tobytes() == np.float64(m.nu * pairs + total).tobytes()
    assert log_weight(X, m) == pytest.approx(log_weight(X, pair_table(m)), rel=1e-12, abs=1e-9)


@given(partition_pairs(), st.integers(0, 3))
def test_batched_disagreement_is_the_pair_loop(pairs, extra_width):
    width = max(len(a.objects) for a, _ in pairs) + extra_width
    rows = _disagreements(_rank_rows([a for a, _ in pairs], width), _rank_rows([b for _, b in pairs], width))
    assert rows.tolist() == [reference_disagreement(a, b) for a, b in pairs]
    assert [pairwise_disagreement(a, b) for a, b in pairs] == rows.tolist()


@given(st.integers(2, 12), st.integers(0, 8), st.integers(0, 2**32 - 1), st.data())
def test_effective_split_ratios_are_the_full_catalog_models(n, k, seed, data):
    # normal draws use every bit, so a change of summation grouping shows
    rng = np.random.default_rng(seed)
    m = CFParams(rng.normal(), rng.normal(size=n), rng.normal(size=(n, k)))
    active = sorted(data.draw(st.sets(st.integers(0, k - 1))) if k else [])
    full = reference_effective_model(m, active)
    assert m.effective(active).u.tobytes() == full.u.tobytes()
    # the sweep's model at a chain's objects, at tau = 1 and at an AIS temperature
    X = data.draw(partitions(n, data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=2))))
    scale = data.draw(st.sampled_from([1.0, *temperature_ladder(AISConfig(7, 1)).tolist()[1:-1]]))
    want = full if scale == 1.0 else scaled(full, scale)
    logom, gathered = m.unit_weights([X])
    assert logom[0].tobytes() == m.log_omegas(X).tobytes()
    local = m.effective_at(gathered[0], active, scale)
    objects = worth_features(X)[1].tolist()
    assert list(local.worths) == objects
    assert np.array(list(local.worths.values())).tobytes() == want.u[objects].tobytes()
    assert np.float64(local.nu).tobytes() == np.float64(want.nu).tobytes()
    cut = data.draw(st.integers(1, len(objects) - 1))
    A, B = objects[:cut], objects[cut:]
    assert np.float64(local_ratio(local, A, B)).tobytes() == np.float64(
        local_ratio(want.split_ratio(objects), A, B)).tobytes()


@given(st.integers(25, 40), st.sampled_from([0, 1, 10]), st.integers(0, 2**32 - 1), st.data())
def test_block_unit_weights_are_the_per_partition_gemv(n, k, seed, data):
    # normal draws use every bit, so a change of summation grouping shows
    rng = np.random.default_rng(seed)
    m = CFParams(rng.normal(), rng.normal(size=n), rng.normal(size=(n, k)))
    sizes = st.just(data.draw(st.integers(1, 25))) if data.draw(st.booleans()) else st.integers(1, 25)
    objects = sizes.flatmap(lambda size: st.lists(st.integers(0, n - 1), unique=True, min_size=size, max_size=size))
    block = data.draw(st.lists(objects.flatmap(lambda o: partitions(n, o)), min_size=1, max_size=12))
    logom, gathered = m.unit_weights(block)
    assert logom.shape == (len(block), k) and len(gathered) == len(block)
    for X, row, (items, Wx) in zip(block, logom, gathered):
        assert row.tobytes() == reference_unit_weights(m, X).tobytes()
        assert items.tolist() == reference_worth_features(X)[1].tolist()
        assert Wx.tobytes() == m.W[items].tobytes()


FLOAT_BOUND = sys.float_info.max / 4  # the largest |parameter| times (K + 1) n_items^2 may not pass it


def largest_accepted(n, k):
    """The largest t with t (k + 1) n^2 <= FLOAT_BOUND in floats."""
    factor = (k + 1) * n * n
    t = FLOAT_BOUND / factor
    while t * factor > FLOAT_BOUND:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) * factor <= FLOAT_BOUND:
        t = math.nextafter(t, math.inf)
    return t


def nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place, up when positive."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def params_with_top(n, k, t, seed, parts):
    """(nu, u, W) with every entry drawn from ``parts`` times t, and one
    entry, of either sign, exactly t in size."""
    rng = np.random.default_rng(seed)
    flat = t * rng.choice(parts, 1 + n + n * k)
    flat[rng.integers(flat.size)] = t * rng.choice([-1.0, 1.0])
    return flat[0], flat[1 : 1 + n], flat[1 + n :].reshape(n, k)


@given(st.integers(1, 40), st.integers(0, 12), st.integers(0, 2**32 - 1), st.data())
def test_cfparams_refuses_exactly_the_parameters_past_the_float_bound(n, k, seed, data):
    edge = largest_accepted(n, k)
    t = data.draw(st.one_of(st.integers(-3, 3).map(lambda ulps: nudge(edge, ulps)),
                            st.floats(edge / 2, edge * 2), st.floats(0.0, sys.float_info.max)))
    nu, u, W = params_with_top(n, k, t, seed, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if t * ((k + 1) * n * n) > FLOAT_BOUND:
            with pytest.raises(ValueError, match="^parameters past the float bound: "):
                CFParams(nu, u, W)
        else:
            assert t <= edge
            CFParams(nu, u, W)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
def test_every_sum_at_the_float_bound_is_finite(n, k, seed, data):
    # at the largest accepted |parameter|, with signs that add up or cancel,
    # every sum the package forms stays finite, with no numpy warning
    m = CFParams(*params_with_top(n, k, largest_accepted(n, k), seed, [-1.0, -0.5, 0.5, 1.0]))
    X = data.draw(partitions(n, data.draw(st.permutations(range(n)))))
    every = list(enumerate_ordered_partitions(n))
    halves = []  # every (A, B) of disjoint non-empty sets of X's objects, each in sorted order
    for sides in itertools.product(range(3), repeat=n):
        A, B = ([x for x, side in zip(range(n), sides) if side == s] for s in (1, 2))
        if A and B:
            halves.append((A, B))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(m.unit_weights(every)[0]).all()
        assert all(math.isfinite(m.log_weight(Y)) for Y in every)
        gathered = m.unit_weights([X])[1][0]
        for mask in range(2**k):
            active = [unit for unit in range(k) if mask >> unit & 1]
            for scale in (1.0, 0.5):
                local = m.effective_at(gathered, active, scale)
                assert math.isfinite(local.nu) and all(map(math.isfinite, local.worths.values()))
                assert all(math.isfinite(local_ratio(local, A, B)) for A, B in halves)
        assert math.isfinite(exact_log_z(m))
        if n <= 4:
            with mock.patch.object(partition_function, "_cpu_count", return_value=1):
                result = ais_log_z(m, AISConfig(3, 2, seed=seed))
            assert np.isfinite(result.log_weights).all() and math.isfinite(result.log_z_estimate)
            assert 0.0 < result.effective_sample_size <= 2.0


@given(st.integers(1, 12).flatmap(partitions))
def test_memoized_features_are_read_only_and_fresh(X):
    pairs, items, coef = worth_features(X)
    r_pairs, r_items, r_coef = reference_worth_features(X)
    assert pairs == r_pairs
    assert items.dtype == r_items.dtype and items.tolist() == r_items.tolist()
    assert coef.dtype == r_coef.dtype and coef.tolist() == r_coef.tolist()
    assert not items.flags.writeable and not coef.flags.writeable
    assert worth_features(X)[1] is items  # computed once per partition
    again = worth_features(OrderedPartition(X.blocks, X.n_objects))
    assert again[1] is not items and again[1].tolist() == items.tolist()


class Replay(random.Random):
    """A ``random.Random`` whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


@given(worth_latent_cases(), st.sampled_from(["linear", "geometric"]), st.integers(2, 50), st.data())
def test_hidden_unit_loops_are_the_float64_loops(case, schedule, n_temperatures, data):
    # the loops these replaced ran over the array's np.float64 scalars, at a rung of AIS's numpy ladder
    m, X, _, _ = case
    logom = m.log_omegas(X)
    ref = np.array([sigmoid(lo) for lo in logom])
    got = hidden_posterior(X, m)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    ladder = temperature_ladder(AISConfig(n_temperatures, 1, schedule))
    tau = ladder[data.draw(st.integers(0, n_temperatures))]
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    ref = np.array([1 if ref_rng.random() < sigmoid(tau * lo) else 0 for lo in logom], dtype=np.int8)
    got = sample_hidden(logom, rng, temperature=tau)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert rng.getstate() == ref_rng.getstate()
    # uniforms at each unit's old probability and one ulp below pin the new probability bitwise
    probs = [sigmoid(tau * lo) for lo in logom]
    assert sample_hidden(logom, Replay(probs), temperature=tau).tolist() == [0] * len(probs)
    below = [math.nextafter(p, 0.0) for p in probs]
    assert sample_hidden(logom, Replay(below), temperature=tau).tolist() == [int(p > 0.0) for p in probs]


@given(worth_latent_cases(), st.sampled_from(["linear", "geometric"]), st.integers(2, 8), st.integers(1, 5),
       st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.data())
def test_ais_loops_are_the_float64_loops(case, schedule, n_temperatures, n_runs, inner_steps, seed, workers, data):
    # the loops these replaced ran over the log-omegas' np.float64 scalars, at rungs of the numpy ladder,
    # in one process; the runs now spread over min(n_runs, workers) processes
    m, X, _, _ = case
    cfg = AISConfig(n_temperatures, n_runs, schedule, inner_steps, seed)
    with mock.patch.object(partition_function, "_cpu_count", return_value=workers):
        got = ais_log_z(m, cfg).log_weights
    assert got.tobytes() == reference_ais_log_weights(m, cfg).tobytes()
    tau = temperature_ladder(cfg)[data.draw(st.integers(0, n_temperatures))]
    ref = tau * log_weight(X, m)
    for lo in m.log_omegas(X):
        ref += _softplus(tau * lo)
    assert np.float64(annealed_unnorm_log_prob(X, tau, m)).tobytes() == np.float64(ref).tobytes()


def assert_checked_build_equal(Y):
    """``Y`` holds sorted tuple blocks, rebuilds through the checked
    constructor to an equal partition, and has empty feature slots."""
    assert type(Y.blocks) is tuple
    assert all(type(b) is tuple and list(b) == sorted(b) for b in Y.blocks)
    rebuilt = OrderedPartition(Y.blocks, Y.n_objects)
    assert rebuilt == Y and hash(rebuilt) == hash(Y)
    assert (Y._feature_pairs, Y._feature_items, Y._feature_coef) == (0, None, None)


@given(st.integers(1, 12).flatmap(partitions), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_kernel_and_uniform_outputs_pass_the_checks(X, seed, steps):
    m = plain_model(-0.5, np.random.default_rng(seed).normal(size=X.n_objects))
    rng, Y = random.Random(seed), X
    for _ in range(steps):  # one move per call, so every state the chain visits is checked
        Y = advance_partition(Y, m, rng, 1)
        assert_checked_build_equal(Y)
    assert Y.objects == X.objects
    U = sample_uniform_ordered_partition(X.n_objects, random.Random(seed))
    assert_checked_build_equal(U)
    assert covers_universe(U)


@pytest.mark.parametrize("n", range(7))
def test_enumerated_partitions_pass_the_checks(n):
    for X in enumerate_ordered_partitions(n):
        assert_checked_build_equal(X)
        assert covers_universe(X)


HALF_STARS = [0.5 * s for s in range(1, 11)]
ID_RANGES = [(0, 50), (-50, 5), (1, 1000), (-(2**63), 2**63 - 1)]  # the last two mostly span > 4x the records


@st.composite
def rating_records(draw):
    """(user, item, rating) arrays in file order: repeated (user, item)
    pairs, negative and int64-extreme ids, users below and above any
    min_ratings, users with one rating value throughout."""
    def ids(n):
        lo, hi = draw(st.sampled_from(ID_RANGES))
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n, unique=True))

    user_ids, item_ids = ids(draw(st.integers(1, 6))), ids(draw(st.integers(1, 40)))
    records = []
    for user in user_ids:
        count = draw(st.integers(0, 36))
        if draw(st.booleans()):  # repeated items
            items = draw(st.lists(st.sampled_from(item_ids), min_size=count, max_size=count))
        else:
            items = draw(st.permutations(item_ids))[:count]
        ratings = st.just(draw(st.sampled_from(HALF_STARS))) if draw(st.booleans()) else st.sampled_from(HALF_STARS)
        records += [(user, item, draw(ratings)) for item in items]
    records = draw(st.permutations(records))
    users, items, rates = zip(*records) if records else ((), (), ())
    return np.array(users, dtype=np.int64), np.array(items, dtype=np.int64), np.array(rates, dtype=float)


def graded_dataset(records, n_grades):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate pairs
        return grade_ratings(_build_dataset(*records), n_grades=n_grades)


def assert_same_dataset(a, b):
    assert a.n_grades == b.n_grades
    for name in ("users", "items", "ratings", "user_ids", "item_ids", "grades"):
        x, y = getattr(a, name), getattr(b, name)
        if y is None:
            assert x is None
        else:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@given(rating_records(), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_set_up_passes_are_the_per_user_loops(records, n_grades, n_train, extra, seed):
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        ds = _build_dataset(*records)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        assert_same_dataset(ds, reference_build_dataset(*records))
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]

    ds = graded_dataset(records, n_grades)
    filtered = entropy_filter(ds)
    assert_same_dataset(filtered, reference_entropy_filter(ds))

    spec = SplitSpec(n_train=n_train, min_ratings=n_train + 10 + extra, seed=seed)
    splits = []
    for d in (ds, filtered):
        splits += train_test_split(d, spec)
        for got, want in zip(splits[-2:], reference_train_test_split(d, spec)):
            assert_same_dataset(got, want)

    for d in (ds, filtered, *splits):
        parts = user_partitions(d)
        assert repr(list(parts.items())) == repr(list(reference_user_partitions(d).items()))
        for X in parts.values():
            assert_checked_build_equal(X)


@given(st.integers(1, 12), st.lists(st.one_of(st.integers(0, 30), st.integers(76, 100)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_split_draws_are_sample_on_both_sides_of_its_set_size(n_train, counts, seed):
    # rng.sample(range(count), k) keeps a pool of the count while it is at most 21, or
    # 85 for 6 <= k <= 21, and a set of the picks above
    users = np.repeat(np.arange(len(counts)), counts)
    items = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
    ds = graded_dataset((users, items, np.full(len(users), 3.0)), 5)
    spec = SplitSpec(n_train=n_train, min_ratings=n_train + 10, seed=seed)
    for got, want in zip(train_test_split(ds, spec), reference_train_test_split(ds, spec)):
        assert_same_dataset(got, want)


@given(rating_records(), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from(["zero", "tied", "random"]), st.integers(0, 3), st.data())
def test_batched_ranking_is_complete_rank(records, n_grades, n_train, seed, kind, k, data):
    train_ds, test_ds = train_test_split(graded_dataset(records, n_grades),
                                         SplitSpec(n_train=n_train, min_ratings=n_train + 10, seed=seed))
    n = train_ds.n_items
    values = {"zero": st.just(0.0), "tied": st.sampled_from([-1.0, 0.0, 1.0]), "random": worths}[kind]
    params = CFParams(data.draw(values), data.draw(arrays(float, n, elements=values)),
                      data.draw(arrays(float, (n, k), elements=values)))
    parts = reference_user_partitions(train_ds)
    ranked_items, rows = [], []
    for u, recs in enumerate(by_user(test_ds)):
        if len(recs) and u in parts:
            oracle = complete_rank(parts[u], test_ds.items[recs].tolist(), params).items
            grade_of = dict(zip(test_ds.items[recs].tolist(), test_ds.grades[recs].tolist()))
            ranked_items += oracle
            rows.append([grade_of[j] for j in oracle])
    records, lengths, scores = _scored_test_records(params, train_ds, test_ds)
    assert test_ds.items[records[walk_ranking(scores, lengths)]].tolist() == ranked_items

    names = ["ndcg@1", "ndcg@5", "err"]
    if not rows:
        with pytest.raises(ValueError, match="no users"):
            evaluate_ranking(params, train_ds, test_ds, parse_metrics(names))
        return
    report = evaluate_ranking(params, train_ds, test_ds, parse_metrics(names))
    assert report["n_users"] == len(rows)
    for name in names:
        want = [parse_metrics([name])[name](np.array([row]))[0] for row in rows]
        np.testing.assert_allclose(report["metrics"][name]["per_user"], want, rtol=0, atol=1e-12)


RANK_SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]) | st.floats()


@given(st.lists(st.lists(st.tuples(st.integers(1, 5), RANK_SCORES), min_size=1, max_size=12),
                min_size=1, max_size=30),
       st.integers(2, 40))
def test_metric_rows_do_not_depend_on_the_chunk_bound(lists, cells):
    # one list per chunk, chunks of a few lists, and the default bound (one chunk here)
    grades, scores = (np.array([pair[i] for row in lists for pair in row], dtype=float) for i in (0, 1))
    lengths = np.array([len(row) for row in lists])
    metrics = parse_metrics(["ndcg@1", "ndcg@5", "err"])
    values = _ranked_metric_rows(metrics, scores, grades, lengths)
    for bound in (1, cells):
        assert _ranked_metric_rows(metrics, scores, grades, lengths, bound).tobytes() == values.tobytes()
    for row, lst in zip(values.tolist(), lists):
        list_grades, list_scores = np.array(lst).T
        ranked = list_grades[np.lexsort((np.arange(len(lst)), -list_scores))]
        assert row == [metric(ranked[None])[0] for metric in metrics.values()]


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 11), RANK_SCORES), max_size=60),
       st.integers(1, 40))
def test_ranking_by_user_is_lexsort(records, cells):
    # ties, signed zeros, infinities and NaN; users with one record; chunks of
    # one user to all of them, and cell bounds below the longest user's count
    users, items, scores = (np.array(column, dtype=dtype) for column, dtype in
                            zip(zip(*records) if records else ((), (), ()), (np.int64, np.int64, float)))
    order, lengths = _stable_order((items, 12), (users, 8)), np.bincount(users)
    got = order[walk_ranking(scores[order], lengths[lengths > 0], cells)]
    assert got.tolist() == np.lexsort((items, -scores, users)).tolist()


@given(st.binary() | st.lists(st.sampled_from([b":", b"::", b":::", b"1", b"a", b"\n"])).map(b"".join))
def test_odd_colon_run_is_the_count_rule(chunk):
    assert _odd_colon_run(chunk) == (chunk.count(b":") != 2 * chunk.count(b"::"))
