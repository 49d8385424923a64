"""Collaborative-ranking data pipeline: ingestion, the preprocessing
protocol (grading, entropy filtering, per-user splits), rank completion
and reconstruction, and batched per-user evaluation.
"""

from __future__ import annotations

import math
import os
import random
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .latent import LatentModel, hidden_posterior
from .learning import CFParams
from .metrics import err_rows, ndcg_rows

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
    "evaluate_ranking",
    "parse_metric",
    "parse_metrics",
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
    n_grades: int = 0
    grades: Optional[np.ndarray] = None

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_records(self) -> int:
        return len(self.ratings)


def _present(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark ``index`` in the bool ``table``; returns the marked positions and
    each index's rank among them."""
    table[index] = True
    return np.flatnonzero(table), (np.cumsum(table) - 1)[index]


def _dense_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)``, from a presence table when
    the ids span at most four times their count."""
    if len(ids):
        lo = int(ids.min())
        span = int(ids.max()) - lo
        if span <= 4 * len(ids):
            distinct, dense = _present(np.zeros(span + 1, dtype=bool), ids - lo)
            return distinct + lo, dense
    return np.unique(ids, return_inverse=True)


def _build_dataset(users: np.ndarray, items: np.ndarray, rates: np.ndarray) -> RatingsDataset:
    user_ids, dense_users = _dense_ids(users)
    item_ids, dense_items = _dense_ids(items)
    # duplicate (user, item) pairs: keep the last occurrence.  The sort is
    # stable, so the last record of each run of equal pairs in sorted order
    # is the pair's last record in file order.  Dropping the others leaves
    # every user and item in the data, so the dense indices stay valid.
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


_RECORD = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64)])
# format -> (field separator, loadtxt delimiter, loadtxt usecols, header lines)
_FORMATS = {
    "movielens_dcolon": ("::", ":", (0, 2, 4), 0),
    "csv": (",", ",", (0, 1, 2), 1),
}
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # the suffixes np.loadtxt decompresses


def _parse_records(lines, fmt: str, skiprows: int = 0) -> np.ndarray:
    """One ``np.loadtxt`` call over a path, an open file or a list of lines."""
    _, delimiter, usecols, _ = _FORMATS[fmt]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        return np.loadtxt(
            lines, dtype=_RECORD, comments=None, delimiter=delimiter,
            usecols=usecols, skiprows=skiprows, ndmin=1,
        )


def _odd_colon_run(path: str) -> bool:
    """True if some run of colons has odd length (``1:2:3``, ``1:::2``).

    Splitting on ``:`` then disagrees with splitting on ``::``; with only
    even runs, column 2k of the ``:`` split is field k of the ``::`` split.
    Chunks end at line ends, which no run spans, so the file is never held whole.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16) + fh.readline(), b""):
            if chunk.count(b":") != 2 * chunk.count(b"::"):
                return True
    return False


_INT64 = range(-(2**63), 2**63)  # the ids np.loadtxt can read


def _is_record(parts: list[str]) -> bool:
    if len(parts) < 3 or any("_" in p for p in parts[:3]):  # loadtxt takes no 1_000
        return False
    try:
        user, item = int(parts[0]), int(parts[1])
        float(parts[2])
    except ValueError:
        return False
    return user in _INT64 and item in _INT64


def _scan_lines(path: str, fmt: str, strict: bool) -> list[str]:
    """Per-line check of a file ``np.loadtxt`` refused: names the first
    malformed line (an error in strict mode, a warning otherwise) and
    returns the well-formed lines.  Blank lines are skipped."""
    sep, _, _, header = _FORMATS[fmt]
    good: list[str] = []
    bad: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or lineno <= header:
                continue
            if _is_record(line.split(sep)):
                good.append(line)
            else:
                bad.append(lineno)
    if bad:
        message = f"{path}: {len(bad)} malformed lines (first at line {bad[0]})"
        if strict:
            raise ValueError(message)
        warnings.warn(message)
    return good


def load_ratings(
    path: str,
    fmt: str = "movielens_dcolon",
    strict: bool = True,
) -> RatingsDataset:
    """Parse ``user::item::rating[::...]`` or headed ``user,item,rating[,...]``
    rating files; fields after the rating (a timestamp, say) are ignored.

    A well-formed file is read by one ``np.loadtxt`` call, in blocks from the
    path unless the name has a compressed suffix or looks like a URL.
    Otherwise a per-line scan reports malformed lines with their line
    numbers; in strict mode any malformed line is an error, else those lines
    are dropped.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    path = os.fspath(path)
    try:
        if fmt == "movielens_dcolon" and _odd_colon_run(path):
            raise ValueError("single colons")
        with open(path) as fh:  # a missing file fails here, with the OS's message
            # numpy reads a path in blocks, but through its DataSource, which
            # decompresses by suffix and fetches URLs: those names keep the handle
            source = fh if "://" in path or path.endswith(_COMPRESSED) else path
            records = _parse_records(source, fmt, skiprows=_FORMATS[fmt][3])
    except ValueError:
        records = _parse_records(_scan_lines(path, fmt, strict), fmt)
    return _build_dataset(records["user"], records["item"], records["rating"])


def grade_ratings(
    ds: RatingsDataset, n_grades: int = 5, scale: tuple[float, float] = DEFAULT_SCALE
) -> RatingsDataset:
    """Map ratings to grades 1..n_grades by equal-length segments of the
    rating ``scale`` (lo, hi); out-of-scale or non-finite ratings are an error."""
    if not 1 <= n_grades <= 2**53:  # segment indices stay exact in float64 and fit int64
        raise ValueError(f"n_grades must lie in 1..2**53, got {n_grades}")
    lo, hi = scale
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid rating scale [{lo}, {hi}]")
    r = ds.ratings
    if not np.isfinite(r).all():
        raise ValueError(f"non-finite rating {r[~np.isfinite(r)][0]}")
    if len(r) and (r.min() < lo or r.max() > hi):
        raise ValueError(f"rating outside declared scale [{lo}, {hi}]")
    seg = (hi - lo) / n_grades
    grades = np.minimum(n_grades, 1 + np.floor((r - lo) / seg).astype(np.int64))
    return replace(ds, n_grades=n_grades, grades=grades)


def entropy_filter(ds: RatingsDataset) -> RatingsDataset:
    """Drop the floor(n_items/2) items whose grade distributions have the
    lowest entropy H_i = -sum_r P_i(r) log P_i(r) (natural log); these are
    the items users agree on."""
    if ds.grades is None:
        raise ValueError("entropy_filter needs a graded dataset (run grade_ratings first)")
    n_items, n_grades = ds.n_items, ds.n_grades
    if len(ds.grades) and not 1 <= ds.grades.min() <= ds.grades.max() <= n_grades:
        raise ValueError(f"grades must lie in 1..{n_grades}")
    grades = ds.grades - 1
    if n_grades > len(grades):  # count only the grades that occur
        occurring, grades = np.unique(grades, return_inverse=True)
        n_grades = len(occurring)
    counts = np.bincount(ds.items * n_grades + grades, minlength=n_items * n_grades)
    counts = counts.reshape(n_items, n_grades).astype(float)
    totals = counts.sum(axis=1)
    totals[totals == 0] = 1.0
    p = counts / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=1)
    n_remove = n_items // 2
    order = np.argsort(entropy, kind="stable")
    keep_mask = np.ones(n_items, dtype=bool)
    keep_mask[order[:n_remove]] = False
    keep_records = keep_mask[ds.items]
    items = (np.cumsum(keep_mask) - 1)[ds.items[keep_records]]
    kept_users, users = _present(np.zeros(ds.n_users, dtype=bool), ds.users[keep_records])
    return replace(ds, users=users, items=items, ratings=ds.ratings[keep_records],
                   user_ids=ds.user_ids[kept_users], item_ids=ds.item_ids[keep_mask],
                   grades=ds.grades[keep_records])


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
    grades = ds.grades[keep] if ds.grades is not None else None
    return replace(ds, users=ds.users[keep], items=ds.items[keep], ratings=ds.ratings[keep],
                   grades=grades)


def train_test_split(ds: RatingsDataset, spec: SplitSpec) -> tuple[RatingsDataset, RatingsDataset]:
    """Apply the split protocol; deterministic under spec.seed.

    The returned datasets share the parent's dense indexing (items keep
    their positions in the catalog; users below min_ratings disappear from
    the records but not from the index).
    """
    rng = random.Random(spec.seed)
    counts = np.bincount(ds.users, minlength=ds.n_users)
    eligible = counts >= spec.min_ratings
    # one draw of positions within each eligible user's records, in user order
    users = np.flatnonzero(eligible)
    picks = [rng.sample(range(count), spec.n_train) for count in counts[users].tolist()]
    order = np.argsort(ds.users, kind="stable")  # records by user, then record index
    first = np.cumsum(counts) - counts
    chosen = np.repeat(first[users], spec.n_train) + np.array(picks, dtype=np.int64).ravel()
    train_keep = np.zeros(ds.n_records, dtype=bool)
    train_keep[order[chosen]] = True
    test_keep = eligible[ds.users] & ~train_keep
    return _subset(ds, train_keep), _subset(ds, test_keep)


def user_partitions(ds: RatingsDataset) -> dict[int, OrderedPartition]:
    """Each user's graded items as an ordered partition over the item catalog
    (block 0 = highest grade; item indices are catalog-wide)."""
    if ds.grades is None:
        raise ValueError("user_partitions needs a graded dataset")
    order = np.lexsort((ds.items, -ds.grades, ds.users))  # by user, grade down, item up
    users, grades = ds.users[order], ds.grades[order]
    user_start = np.ones(len(order), dtype=bool)
    user_start[1:] = users[1:] != users[:-1]
    block_start = user_start.copy()
    block_start[1:] |= grades[1:] != grades[:-1]
    bounds = np.flatnonzero(np.append(block_start, True)).tolist()
    items = ds.items[order].tolist()
    blocks = [tuple(items[a:b]) for a, b in zip(bounds, bounds[1:])]
    # the records are distinct (user, item) pairs of dense ids: valid partitions
    spans = np.append(np.flatnonzero(user_start[block_start]), len(blocks)).tolist()
    return {
        u: OrderedPartition._unchecked(tuple(blocks[a:b]), ds.n_items)
        for u, a, b in zip(users[user_start].tolist(), spans, spans[1:])
    }


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


def _mean_worth(m: LatentModel, p: np.ndarray) -> np.ndarray:
    """u + W p: each item's order worth averaged over hidden activations ``p``."""
    if not isinstance(m, CFParams):
        raise ValueError("per-item worths need a worth-parameterized model")
    return m.u + m.W @ p


def complete_rank(
    seen: OrderedPartition, unseen: Iterable[int], m: LatentModel
) -> RankedList:
    """Score unseen items against a user's observed partition.

    Mean-field completion: with p the hidden posterior given ``seen``,
    score(j) = sum_{i in seen} [log psi(j > i) + sum_k p_k log psi_k(j > i)].
    psi depends on the winner only, so this is |seen| * (u_j + W_j . p);
    descending scores, ties broken by ascending item index.  ``m`` must be a
    ``CFParams``.
    """
    seen_items = seen.objects
    if not seen_items:
        raise ValueError("seen partition must contain at least one item")
    unseen = list(unseen)
    if set(unseen) & set(seen_items):
        raise ValueError("unseen items overlap the seen partition")
    w = _mean_worth(m, hidden_posterior(seen, m))
    return _rank({j: len(seen_items) * float(w[j]) for j in unseen})


def parse_metric(name: str):
    """'ndcg@T' or 'err' -> callable(grades, lengths=None) -> one value per
    row of grades in predicted order (see ``metrics.ndcg_rows``)."""
    name = name.strip().lower()
    if name == "err":
        return err_rows
    if name.startswith("ndcg@"):
        try:
            t = int(name.split("@", 1)[1])
        except ValueError:
            raise ValueError(f"metric {name!r}: truncation must be an integer") from None
        if t < 1:
            raise ValueError(f"metric {name!r}: truncation must be >= 1")
        return lambda grades, lengths=None: ndcg_rows(grades, t, lengths)
    raise ValueError(f"unknown metric {name!r}")


def parse_metrics(names: Sequence[str]) -> list:
    """``parse_metric`` over a list of names, which must not be empty."""
    if not names:
        raise ValueError("no metrics requested")
    return [parse_metric(name) for name in names]


def _worth_coefficients(ds: RatingsDataset) -> tuple[np.ndarray, np.ndarray]:
    """``worth_features`` of every user's graded partition at once.

    Returns the within-grade pair count per user and the coefficient per
    record: 0.5 * (n_g - 1) + (the user's records graded below g), where g
    is the record's grade and n_g the number of the user's records of
    grade g.
    """
    order = np.lexsort((ds.grades, ds.users))  # by user, then ascending grade
    users, grades = ds.users[order], ds.grades[order]
    n = len(order)
    user_start = np.ones(n, dtype=bool)
    user_start[1:] = users[1:] != users[:-1]
    group_start = user_start.copy()
    group_start[1:] |= grades[1:] != grades[:-1]
    starts = np.flatnonzero(group_start)
    sizes = np.diff(np.append(starts, n))
    group = np.cumsum(group_start) - 1
    first_of_user = np.maximum.accumulate(np.where(user_start, np.arange(n), 0))
    coef = np.empty(n)
    coef[order] = 0.5 * (sizes[group] - 1) + (starts[group] - first_of_user)
    pairs = np.bincount(users[starts], weights=sizes * (sizes - 1) // 2, minlength=ds.n_users)
    return pairs, coef


def _ranked_test_records(
    params: CFParams, train_ds: RatingsDataset, test_ds: RatingsDataset
) -> np.ndarray:
    """``complete_rank`` for every user with training and test records at once.

    Returns those users' test-record indices, grouped by ascending user and,
    within a user, ranked by descending score, ties by ascending item.
    Scores are |seen| * (u_j + W_j . p) with p the hidden posterior given
    the user's training partition, as ``complete_rank`` computes them.
    """
    pairs, coef = _worth_coefficients(train_ds)
    # log Omega_k per user and hidden unit
    x = np.repeat(params.nu * pairs[:, None], params.n_hidden, axis=1)
    np.add.at(x, train_ds.users, coef[:, None] * params.W[train_ds.items])
    e = np.exp(-np.abs(x))
    posterior = np.where(x >= 0, 1.0, e) / (1.0 + e)  # latent.sigmoid, both branches

    n_seen = np.bincount(train_ds.users, minlength=train_ds.n_users)
    keep = np.flatnonzero(n_seen[test_ds.users] > 0)
    users, items = test_ds.users[keep], test_ds.items[keep]
    n = test_ds.n_items
    # a test key among the sorted training keys; only the shorter array is sorted
    seen_keys = np.sort(train_ds.users * n + train_ds.items)
    keys = users * n + items
    at = np.minimum(np.searchsorted(seen_keys, keys), len(seen_keys) - 1)
    if (seen_keys[at] == keys).any():
        raise ValueError("unseen items overlap the seen partition")
    hidden_worth = np.zeros(len(keep))
    for k in range(params.n_hidden):
        hidden_worth += params.W[items, k] * posterior[users, k]
    scores = n_seen[users] * (params.u[items] + hidden_worth)
    # np.lexsort((items, -scores, users)) as three stable passes; integer keys
    # in their smallest dtype, so ids below 2**16 take numpy's radix sort
    order = np.argsort(items.astype(np.min_scalar_type(n)), kind="stable")
    order = order[np.argsort(-scores[order], kind="stable")]
    order = order[np.argsort(users[order].astype(np.min_scalar_type(test_ds.n_users)), kind="stable")]
    return keep[order]


def evaluate_ranking(
    params: CFParams,
    train_ds: RatingsDataset,
    test_ds: RatingsDataset,
    metric_names: Sequence[str],
) -> dict:
    """Rank each user's test items given their training partition and average
    the requested metrics over users.

    Deterministic: all users are scored in one batch against ``params``;
    rankings equal ``complete_rank`` on ``user_partitions(train_ds)``.
    """
    metrics = parse_metrics(metric_names)  # validate upfront
    if train_ds.grades is None or test_ds.grades is None:
        raise ValueError("evaluate_ranking needs graded datasets")
    ranked = _ranked_test_records(params, train_ds, test_ds)
    if not len(ranked):
        raise ValueError("no users with both training and test records")
    # one padded row of grades in predicted order per user
    users = test_ds.users[ranked]
    first = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    lengths = np.diff(np.r_[first, len(users)])
    row = np.repeat(np.arange(len(first)), lengths)
    grades = np.zeros((len(first), lengths.max()))
    grades[row, np.arange(len(users)) - first[row]] = test_ds.grades[ranked]
    values = np.column_stack([metric(grades, lengths) for metric in metrics])
    report = {"n_users": len(first), "metrics": {}}
    for col, name in enumerate(metric_names):
        vals = values[:, col]
        report["metrics"][name] = {
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "per_user": vals,
        }
    return report
