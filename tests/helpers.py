"""Shared test utilities: independent brute-force oracles and tiny fakes.

The oracles here deliberately avoid the library's own code paths (they
count via surjections and raw assignment vectors) so library bugs cannot
cancel against test bugs.
"""

from __future__ import annotations

import itertools

import numpy as np


def brute_force_set_partitions(n: int, t: int) -> int:
    """Count partitions of an n-set into exactly t unlabeled non-empty blocks
    by canonicalizing every assignment vector."""
    seen = set()
    for assign in itertools.product(range(t), repeat=n):
        if len(set(assign)) != t:
            continue
        blocks = frozenset(
            frozenset(i for i in range(n) if assign[i] == b) for b in range(t)
        )
        seen.add(blocks)
    return len(seen)


def brute_force_ordered_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered set partitions of {0..n-1} as block tuples, via rank
    functions: assignments onto a contiguous label range 0..T-1."""
    out = []
    for assign in itertools.product(range(n), repeat=n):
        labels = set(assign)
        if labels != set(range(len(labels))):
            continue
        blocks = tuple(
            tuple(i for i in range(n) if assign[i] == b) for b in range(len(labels))
        )
        out.append(blocks)
    return out


def random_matrix_model(n: int, seed: int, scale: float = 1.0):
    from oracles import MatrixPairModel

    rng = np.random.default_rng(seed)
    tie = rng.uniform(-scale, scale, (n, n))
    tie = 0.5 * (tie + tie.T)
    order = rng.uniform(-scale, scale, (n, n))
    return MatrixPairModel(tie, order)


def random_latent_model(n: int, k: int, seed: int, scale: float = 1.0):
    from oracles import LatentModel

    base = random_matrix_model(n, seed, scale)
    hidden = [random_matrix_model(n, seed + 1000 + i, scale) for i in range(k)]
    return LatentModel(base, hidden)


class FakeRng:
    """Deterministic stand-in feeding prescribed draws to proposal code."""

    def __init__(self, randrange_values=(), sample_values=(), random_values=()):
        self._randrange = list(randrange_values)
        self._sample = list(sample_values)
        self._random = list(random_values)

    def randrange(self, *_args):
        return self._randrange.pop(0)

    def sample(self, _population, _k):
        return self._sample.pop(0)

    def random(self):
        return self._random.pop(0)


def reference_load_ratings(path: str, fmt: str = "movielens_dcolon", fourth_field: bool = True):
    """The per-line rating parser ``load_ratings`` replaced, kept as an oracle.

    Returns the parsed (user, item, rating) records keyed by line number, in
    file order, and the numbers of the malformed lines.  With
    ``fourth_field`` (the old behaviour) a fourth field that is not a number
    makes its line malformed; ``load_ratings`` ignores fields after the
    rating.
    """
    records, bad = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if fmt == "csv" and lineno == 1:
                continue  # header
            parts = line.split("::") if fmt == "movielens_dcolon" else line.split(",")
            try:
                if len(parts) < 3:
                    raise ValueError
                record = (int(parts[0]), int(parts[1]), float(parts[2]))
                if fourth_field and len(parts) > 3:
                    float(parts[3])
            except ValueError:
                bad.append(lineno)
                continue
            records[lineno] = record
    return records, bad


def by_user(ds) -> list[np.ndarray]:
    """Record indices per dense user id of a ``RatingsDataset``."""
    order = np.argsort(ds.users, kind="stable")
    bounds = np.searchsorted(ds.users[order], np.arange(ds.n_users + 1))
    return [order[bounds[u] : bounds[u + 1]] for u in range(ds.n_users)]


def walk_ranking(scores, lengths, cells: int = 0) -> np.ndarray:
    """The positions of lists held one after another in ``scores``, in the
    order ``pipeline._ranked_metric_rows`` ranks them (``cells`` 0: its
    default bound): the walk's ranked grades when the grades are the
    positions, read by a metric that records them."""
    from osmrank.pipeline import _CELLS, _ranked_metric_rows

    ranked = [np.zeros(0)]

    def record(grades, chunk, largest):
        ranked.append(grades[np.arange(grades.shape[1]) < chunk[:, None]])
        return np.zeros(len(grades))

    if len(lengths):
        _ranked_metric_rows({"record": record}, scores, np.arange(len(scores), dtype=float), lengths, cells or _CELLS)
    return np.concatenate(ranked).astype(np.int64)


def reference_build_dataset(users, items, rates):
    """``pipeline._build_dataset`` with ``np.unique`` dense ids, kept as an oracle."""
    import warnings

    from osmrank.pipeline import RatingsDataset

    user_ids, dense_users = np.unique(users, return_inverse=True)
    item_ids, dense_items = np.unique(items, return_inverse=True)
    pair = dense_users * len(item_ids) + dense_items
    order = np.argsort(pair, kind="stable")
    last = np.ones(len(order), dtype=bool)
    last[:-1] = pair[order[1:]] != pair[order[:-1]]
    if not last.all():
        warnings.warn(f"{len(last) - np.count_nonzero(last)} duplicate (user, item) ratings; last wins")
        keep = np.sort(order[last])
        dense_users, dense_items, rates = dense_users[keep], dense_items[keep], rates[keep]
    return RatingsDataset(
        users=dense_users.astype(np.int64),
        items=dense_items.astype(np.int64),
        ratings=np.ascontiguousarray(rates, dtype=float),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def reference_entropy_filter(ds):
    """``entropy_filter`` with ``np.add.at`` counts and ``np.unique`` user
    ids, kept as an oracle."""
    from dataclasses import replace

    n_items = ds.n_items
    counts = np.zeros((n_items, ds.n_grades))
    np.add.at(counts, (ds.items, ds.grades - 1), 1.0)
    totals = counts.sum(axis=1)
    totals[totals == 0] = 1.0
    p = counts / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=1)
    order = np.argsort(entropy, kind="stable")
    keep_mask = np.ones(n_items, dtype=bool)
    keep_mask[order[: n_items // 2]] = False
    keep_records = keep_mask[ds.items]
    remap = np.full(n_items, -1, dtype=np.int64)
    remap[np.flatnonzero(keep_mask)] = np.arange(keep_mask.sum())
    user_ids, dense_users = np.unique(ds.user_ids[ds.users[keep_records]], return_inverse=True)
    return replace(ds, users=dense_users, items=remap[ds.items[keep_records]],
                   ratings=ds.ratings[keep_records], user_ids=user_ids,
                   item_ids=ds.item_ids[keep_mask], grades=ds.grades[keep_records])


def reference_train_test_split(ds, spec):
    """``train_test_split`` as a per-user loop, kept as an oracle."""
    import random

    from osmrank.pipeline import _subset

    rng = random.Random(spec.seed)
    train_keep = np.zeros(ds.n_records, dtype=bool)
    test_keep = np.zeros(ds.n_records, dtype=bool)
    for rec_idx in by_user(ds):
        if len(rec_idx) < spec.min_ratings:
            continue
        chosen = rng.sample(range(len(rec_idx)), spec.n_train)
        chosen_mask = np.zeros(len(rec_idx), dtype=bool)
        chosen_mask[chosen] = True
        train_keep[rec_idx[chosen_mask]] = True
        test_keep[rec_idx[~chosen_mask]] = True
    return _subset(ds, train_keep), _subset(ds, test_keep)


def reference_user_partitions(ds):
    """``user_partitions`` as a per-user loop over checked partitions, kept
    as an oracle."""
    from oracles import from_graded_ratings

    out = {}
    for u, rec_idx in enumerate(by_user(ds)):
        if len(rec_idx):
            grades = {int(ds.items[r]): int(ds.grades[r]) for r in rec_idx}
            out[u] = from_graded_ratings(grades, n_objects=ds.n_items)
    return out


def block_of(X) -> dict[int, int]:
    """Map object index -> block index."""
    return {x: t for t, block in enumerate(X.blocks) for x in block}


def reference_worth_features(X):
    """``worth_features`` from its definition, for a fresh computation: per
    object in block order, half its within-block ties plus the objects
    ranked below it."""
    items, coef = [], []
    below = sum(len(b) for b in X.blocks)
    for block in X.blocks:
        below -= len(block)
        for x in block:
            items.append(x)
            coef.append(0.5 * (len(block) - 1) + below)
    pairs = sum(len(b) * (len(b) - 1) // 2 for b in X.blocks)
    return pairs, np.array(items, dtype=int), np.array(coef, dtype=float)


def reference_accumulate(entries, n_items: int, n_hidden: int):
    """The per-entry loop ``learning._accumulate`` replaced, kept as an
    oracle: summed partials of the log joint weight over (X, h) pairs."""
    d_nu = 0.0
    d_u = np.zeros(n_items)
    d_W = np.zeros((n_items, n_hidden))
    for X, h in entries:
        h = np.asarray(h, dtype=float)
        pairs, items, coef = reference_worth_features(X)
        d_nu += pairs * (1.0 + h.sum())
        d_u[items] += coef
        d_W[items] += np.outer(coef, h)
    return d_nu, d_u, d_W


def reference_disagreement(sample, observed) -> float:
    """The pair loop ``pairwise_disagreement`` replaced, kept as an oracle."""
    ra = block_of(sample)
    rb = block_of(observed)
    if set(ra) != set(rb):
        raise ValueError("partitions must cover the same objects")
    objs = sorted(ra)
    if len(objs) < 2:
        return 0.0
    mismatches = 0
    total = 0
    for a_idx, i in enumerate(objs):
        for j in objs[a_idx + 1 :]:
            total += 1
            rel_a = (ra[i] > ra[j]) - (ra[i] < ra[j])
            rel_b = (rb[i] > rb[j]) - (rb[i] < rb[j])
            mismatches += rel_a != rel_b
    return mismatches / total


def reference_effective_model(m, active):
    """A worth latent model's effective model over the whole catalog:
    ``CFParams(nu + nu |active|, u + (W[:, k1] + W[:, k2] + ...), zeros(n, 0))``."""
    from osmrank.learning import CFParams

    extra = 0.0
    for _ in active:  # a left fold: the builtin float sum is compensated from Python 3.12
        extra += m.nu
    return CFParams(m.nu + extra, m.u + sum(m.W[:, k] for k in active), np.zeros((m.n_items, 0)))


def reference_unit_weights(m, X):
    """A worth latent model's unit weights log Omega_k(X), one partition at a
    time: the gemv ``coef @ W[items]``, then ``nu * pairs`` added."""
    pairs, items, coef = reference_worth_features(X)
    logom = coef @ m.W[items]
    logom += m.nu * pairs
    return logom


def gibbs_sweep(X, m, rng):
    """``gibbs_mh_step`` with X's unit weights from a one-partition block."""
    from osmrank.latent import gibbs_mh_step, unit_posteriors

    logom, gathered = m.unit_weights([X])
    return gibbs_mh_step(X, m, unit_posteriors(logom[0]).tolist(), gathered[0], rng)


def reference_gibbs_step(X, m, rng):
    """``gibbs_mh_step`` on the full-catalog effective model."""
    from osmrank.latent import sample_hidden
    from osmrank.sampler import advance_partition

    h = sample_hidden(reference_unit_weights(m, X), rng)
    active = [k for k, hk in enumerate(h.tolist()) if hk]
    eff = reference_effective_model(m, active)
    return advance_partition(X, eff, rng, sum(len(b) for b in X.blocks)), h


def reference_train(data, cfg, callback=None):
    """``train`` as a per-user loop: unit weights one partition at a time,
    per-entry gradient statistics, the pair-loop disagreement and
    full-catalog effective models, on the same draws."""
    import random

    from osmrank.learning import CFParams, cf_latent_model

    from oracles import sigmoid

    rng = random.Random(cfg.seed)
    usable = [X for X in data if sum(map(len, X.blocks)) >= 2]
    n_items, n_hidden = usable[0].n_objects, cfg.n_hidden
    np_rng = np.random.default_rng(rng.randrange(2**63))
    params = CFParams.random_init(n_items, n_hidden, np_rng, cfg.init_scale)
    chains = list(usable)
    block_counter = 0
    for epoch in range(cfg.epochs):
        order = list(range(len(usable)))
        rng.shuffle(order)
        for start in range(0, len(usable), cfg.block_size):
            block = order[start : start + cfg.block_size]
            model = cf_latent_model(params)
            observed, samples = [], []
            disagreement = 0.0
            for ui in block:
                X_obs = usable[ui]
                logom = reference_unit_weights(model, X_obs).tolist()
                observed.append((X_obs, np.array([sigmoid(lo) for lo in logom])))
                X_c = chains[ui]
                for _ in range(cfg.chain_steps_per_update):
                    X_c, h_c = reference_gibbs_step(X_c, model, rng)
                chains[ui] = X_c
                samples.append((X_c, h_c))
                disagreement += reference_disagreement(X_c, X_obs)
            obs_nu, obs_u, obs_W = reference_accumulate(observed, n_items, n_hidden)
            mod_nu, mod_u, mod_W = reference_accumulate(samples, n_items, n_hidden)
            n = len(block)
            d_nu, d_u, d_W = obs_nu / n - mod_nu / n, obs_u / n - mod_u / n, obs_W / n - mod_W / n
            if cfg.l2:
                d_u -= cfg.l2 * params.u
                d_W -= cfg.l2 * params.W
            params = CFParams(
                params.nu + cfg.learning_rate * d_nu,
                params.u + cfg.learning_rate * d_u,
                params.W + cfg.learning_rate * d_W,
            )
            block_counter += 1
            if callback is not None:
                callback({"epoch": epoch, "block": block_counter, "n_users": n,
                          "disagreement": disagreement / n, "params": params.copy()})
    return params


def reference_ais_log_weights(m, cfg):
    """``ais_log_z``'s per-run log weights, with its unit loops over the
    log-omegas' np.float64 scalars at the rungs of the numpy ladder."""
    import random

    from osmrank.combinatorics import sample_uniform_ordered_partition
    from osmrank.core import log_weight
    from osmrank.latent import effective_pair_model, sample_hidden
    from osmrank.partition_function import _softplus, temperature_ladder
    from osmrank.sampler import advance_partition

    from oracles import scaled

    seed_src = random.Random(cfg.seed)
    run_seeds = [seed_src.randrange(2**63) for _ in range(cfg.n_runs)]
    steps = cfg.inner_steps if cfg.inner_steps is not None else m.n_objects
    taus = temperature_ladder(cfg)
    log_weights = np.empty(cfg.n_runs)
    for r, run_seed in enumerate(run_seeds):
        run_rng = random.Random(run_seed)
        X = sample_uniform_ordered_partition(m.n_objects, run_rng)
        logw = 0.0
        for s in range(1, cfg.n_temperatures + 1):
            t_hi, t_lo = taus[s], taus[s - 1]
            if s > 1:
                h = sample_hidden(logom, run_rng, temperature=t_lo)
                X = advance_partition(X, scaled(effective_pair_model(h, m), t_lo), run_rng, steps)
            logom = m.log_omegas(X)
            logw += (t_hi - t_lo) * log_weight(X, m)
            for lo in logom:
                logw += _softplus(t_hi * lo) - _softplus(t_lo * lo)
        log_weights[r] = logw
    return log_weights
