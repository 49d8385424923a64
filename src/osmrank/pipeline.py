"""Collaborative-ranking data pipeline: ingestion, the preprocessing
protocol (grading, entropy filtering, per-user splits), rank completion
and reconstruction, and per-user evaluation.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import from_graded_ratings
from .latent import LatentModel, hidden_posterior
from .learning import CFParams, cf_latent_model
from .metrics import err, ndcg_at

__all__ = [
    "RatingsDataset",
    "SplitSpec",
    "RankedList",
    "load_ratings",
    "grade_ratings",
    "entropy_filter",
    "train_test_split",
    "user_partitions",
    "complete_rank",
    "reconstruct_rank",
    "evaluate_ranking",
    "parse_metric",
]

DEFAULT_SCALE = (0.5, 5.0)


@dataclass
class RatingsDataset:
    """Flat rating records with dense user/item reindexing.

    ``users``/``items`` hold dense indices into ``user_ids``/``item_ids``
    (the original external identifiers, sorted ascending).  ``grades`` is
    filled by :func:`grade_ratings`.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    user_ids: np.ndarray
    item_ids: np.ndarray
    scale: tuple[float, float] = DEFAULT_SCALE
    n_grades: int = 0
    grades: Optional[np.ndarray] = None
    timestamps: Optional[np.ndarray] = None

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_records(self) -> int:
        return len(self.ratings)

    def by_user(self) -> list[np.ndarray]:
        """Record indices per dense user id."""
        order = np.argsort(self.users, kind="stable")
        bounds = np.searchsorted(self.users[order], np.arange(self.n_users + 1))
        return [order[bounds[u] : bounds[u + 1]] for u in range(self.n_users)]


def _dense_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ids, dense = np.unique(values, return_inverse=True)
    return ids, dense


def _build_dataset(
    raw_users: list[int],
    raw_items: list[int],
    ratings: list[float],
    timestamps: list[float],
    scale: tuple[float, float],
) -> RatingsDataset:
    users = np.asarray(raw_users, dtype=np.int64)
    items = np.asarray(raw_items, dtype=np.int64)
    rates = np.asarray(ratings, dtype=float)
    times = np.asarray(timestamps, dtype=float) if timestamps else None

    if len(users):
        # duplicate (user, item) pairs: keep the last occurrence
        combined = np.stack([users, items], axis=1)
        _, first_pos, inverse = np.unique(
            combined, axis=0, return_index=True, return_inverse=True
        )
        n_unique = len(first_pos)
        if n_unique != len(users):
            warnings.warn(f"{len(users) - n_unique} duplicate (user, item) ratings; last wins")
            last_pos = np.full(n_unique, -1, dtype=np.int64)
            for pos, group in enumerate(inverse):
                last_pos[group] = pos
            keep = np.sort(last_pos)
            users, items, rates = users[keep], items[keep], rates[keep]
            times = times[keep] if times is not None else None

    user_ids, dense_users = _dense_index(users)
    item_ids, dense_items = _dense_index(items)
    return RatingsDataset(
        users=dense_users.astype(np.int64),
        items=dense_items.astype(np.int64),
        ratings=rates,
        user_ids=user_ids,
        item_ids=item_ids,
        scale=scale,
        timestamps=times,
    )


def load_ratings(
    path: str,
    fmt: str = "movielens_dcolon",
    scale: tuple[float, float] = DEFAULT_SCALE,
    strict: bool = True,
) -> RatingsDataset:
    """Parse ``user::item::rating::timestamp`` or headed CSV rating files.

    Malformed lines are reported with their line numbers; in strict mode
    any malformed line is an error.
    """
    if fmt not in ("movielens_dcolon", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    raw_users: list[int] = []
    raw_items: list[int] = []
    ratings: list[float] = []
    timestamps: list[float] = []
    bad: list[int] = []
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
                raw_users.append(int(parts[0]))
                raw_items.append(int(parts[1]))
                ratings.append(float(parts[2]))
                if len(parts) > 3:
                    timestamps.append(float(parts[3]))
            except ValueError:
                bad.append(lineno)
                continue
    if bad:
        message = f"{path}: {len(bad)} malformed lines (first at line {bad[0]})"
        if strict:
            raise ValueError(message)
        warnings.warn(message)
    if timestamps and len(timestamps) != len(ratings):
        timestamps = []
    return _build_dataset(raw_users, raw_items, ratings, timestamps, scale)


def grade_ratings(ds: RatingsDataset, n_grades: int = 5) -> RatingsDataset:
    """Map ratings to grades 1..n_grades by equal-length segments of the
    declared scale; out-of-scale ratings are an error."""
    if n_grades < 1:
        raise ValueError(f"n_grades must be >= 1, got {n_grades}")
    lo, hi = ds.scale
    if hi <= lo:
        raise ValueError("invalid rating scale")
    r = ds.ratings
    if len(r) and (r.min() < lo or r.max() > hi):
        raise ValueError(f"rating outside declared scale [{lo}, {hi}]")
    seg = (hi - lo) / n_grades
    grades = np.minimum(n_grades, 1 + np.floor((r - lo) / seg).astype(np.int64))
    out = RatingsDataset(
        users=ds.users,
        items=ds.items,
        ratings=ds.ratings,
        user_ids=ds.user_ids,
        item_ids=ds.item_ids,
        scale=ds.scale,
        n_grades=n_grades,
        grades=grades,
        timestamps=ds.timestamps,
    )
    return out


def entropy_filter(ds: RatingsDataset) -> RatingsDataset:
    """Drop the floor(n_items/2) items whose grade distributions have the
    lowest entropy H_i = -sum_r P_i(r) log P_i(r) (natural log); these are
    the items users agree on."""
    if ds.grades is None:
        raise ValueError("entropy_filter needs a graded dataset (run grade_ratings first)")
    n_items = ds.n_items
    counts = np.zeros((n_items, ds.n_grades))
    np.add.at(counts, (ds.items, ds.grades - 1), 1.0)
    totals = counts.sum(axis=1)
    totals[totals == 0] = 1.0
    p = counts / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=1)
    n_remove = n_items // 2
    order = np.argsort(entropy, kind="stable")
    removed = set(order[:n_remove].tolist())
    keep_mask = np.array([it not in removed for it in range(n_items)])
    keep_records = keep_mask[ds.items]

    kept_item_ids = ds.item_ids[keep_mask]
    remap = np.full(n_items, -1, dtype=np.int64)
    remap[np.flatnonzero(keep_mask)] = np.arange(keep_mask.sum())
    users = ds.users[keep_records]
    user_ids, dense_users = _dense_index(ds.user_ids[users])
    return RatingsDataset(
        users=dense_users,
        items=remap[ds.items[keep_records]],
        ratings=ds.ratings[keep_records],
        user_ids=user_ids,
        item_ids=kept_item_ids,
        scale=ds.scale,
        n_grades=ds.n_grades,
        grades=ds.grades[keep_records],
        timestamps=ds.timestamps[keep_records] if ds.timestamps is not None else None,
    )


@dataclass
class SplitSpec:
    """Per-user protocol: keep users with >= min_ratings records, put
    exactly n_train of their items in the training side, rest in test."""

    n_train: int
    min_ratings: int
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be positive")
        if self.min_ratings < self.n_train + 10:
            raise ValueError(
                "inconsistent split spec: min_ratings must be >= n_train + 10 "
                "so every kept user has at least 10 test items"
            )


def _subset(ds: RatingsDataset, keep: np.ndarray) -> RatingsDataset:
    """Records subset sharing the parent's dense user/item indexing."""
    return RatingsDataset(
        users=ds.users[keep],
        items=ds.items[keep],
        ratings=ds.ratings[keep],
        user_ids=ds.user_ids,
        item_ids=ds.item_ids,
        scale=ds.scale,
        n_grades=ds.n_grades,
        grades=ds.grades[keep] if ds.grades is not None else None,
        timestamps=ds.timestamps[keep] if ds.timestamps is not None else None,
    )


def train_test_split(
    ds: RatingsDataset, spec: SplitSpec, rng: Optional[random.Random] = None
) -> tuple[RatingsDataset, RatingsDataset]:
    """Apply the split protocol; deterministic under spec.seed.

    The returned datasets share the parent's dense indexing (items keep
    their positions in the catalog; users below min_ratings disappear from
    the records but not from the index).
    """
    if rng is None:
        rng = random.Random(spec.seed)
    train_keep = np.zeros(ds.n_records, dtype=bool)
    test_keep = np.zeros(ds.n_records, dtype=bool)
    for u, rec_idx in enumerate(ds.by_user()):
        if len(rec_idx) < spec.min_ratings:
            continue
        chosen = rng.sample(range(len(rec_idx)), spec.n_train)
        chosen_mask = np.zeros(len(rec_idx), dtype=bool)
        chosen_mask[chosen] = True
        train_keep[rec_idx[chosen_mask]] = True
        test_keep[rec_idx[~chosen_mask]] = True
    return _subset(ds, train_keep), _subset(ds, test_keep)


def user_partitions(ds: RatingsDataset) -> dict[int, OrderedPartition]:
    """Each user's graded items as an ordered partition over the item catalog
    (block 0 = highest grade; item indices are catalog-wide)."""
    if ds.grades is None:
        raise ValueError("user_partitions needs a graded dataset")
    out: dict[int, OrderedPartition] = {}
    for u, rec_idx in enumerate(ds.by_user()):
        if len(rec_idx) == 0:
            continue
        grades = {int(ds.items[r]): int(ds.grades[r]) for r in rec_idx}
        out[u] = from_graded_ratings(grades, n_objects=ds.n_items)
    return out


@dataclass
class RankedList:
    """Items in decreasing predicted preference with their scores."""

    items: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.items) != len(self.scores):
            raise ValueError("items and scores must be parallel")
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate items in ranking")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")


def _rank(scores: dict[int, float]) -> RankedList:
    ordered = sorted(scores, key=lambda j: (-scores[j], j))
    return RankedList(tuple(ordered), tuple(scores[j] for j in ordered))


def complete_rank(
    seen: OrderedPartition, unseen: Iterable[int], m: LatentModel
) -> RankedList:
    """Score unseen items against a user's observed partition.

    Mean-field completion: with p the hidden posterior given ``seen``,
    score(j) = sum_{i in seen} [log psi(j > i) + sum_k p_k log psi_k(j > i)];
    descending scores, ties broken by ascending item index.
    """
    seen_items = seen.objects
    if not seen_items:
        raise ValueError("seen partition must contain at least one item")
    unseen = list(unseen)
    if set(unseen) & set(seen_items):
        raise ValueError("unseen items overlap the seen partition")
    return _rank(m.completion_scores(seen_items, unseen, hidden_posterior(seen, m)))


def reconstruct_rank(
    posterior: np.ndarray, items: Iterable[int], m: LatentModel
) -> RankedList:
    """Complete ranking of ``items`` from a posterior activation vector:
    score(j) = u_j + sum_k posterior_k W_jk (worth-parameterized models)."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (m.n_hidden,):
        raise ValueError(f"posterior must have shape ({m.n_hidden},)")
    w = m.mean_worth(posterior)
    return _rank({j: float(w[j]) for j in items})


def parse_metric(name: str):
    """'ndcg@T' or 'err' -> callable(grades_in_predicted_order) -> float."""
    name = name.strip().lower()
    if name == "err":
        return lambda grades: err(grades)
    if name.startswith("ndcg@"):
        t = int(name.split("@", 1)[1])
        return lambda grades: ndcg_at(grades, t)
    raise ValueError(f"unknown metric {name!r}")


def evaluate_ranking(
    params: CFParams,
    train_ds: RatingsDataset,
    test_ds: RatingsDataset,
    metric_names: Sequence[str],
) -> dict:
    """Rank each user's test items given their training partition and average
    the requested metrics over users.

    Deterministic: every user is scored against one model built from
    ``params``.
    """
    if not metric_names:
        raise ValueError("no metrics requested")
    metrics = [parse_metric(name) for name in metric_names]  # validate upfront
    train_parts = user_partitions(train_ds)
    model = cf_latent_model(params)
    rows = []
    for u, rec_idx in enumerate(test_ds.by_user()):
        if len(rec_idx) == 0 or u not in train_parts:
            continue
        test_items = [int(test_ds.items[r]) for r in rec_idx]
        grade_by_item = {j: int(test_ds.grades[r]) for j, r in zip(test_items, rec_idx)}
        ranking = complete_rank(train_parts[u], test_items, model)
        ordered_grades = [grade_by_item[j] for j in ranking.items]
        rows.append([metric(ordered_grades) for metric in metrics])
    if not rows:
        raise ValueError("no users with both training and test records")
    values = np.asarray(rows)  # (n_users, n_metrics)
    report = {"n_users": len(rows), "metrics": {}}
    for col, name in enumerate(metric_names):
        vals = values[:, col]
        report["metrics"][name] = {
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "per_user": vals,
        }
    return report
