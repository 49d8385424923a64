"""Collaborative-ranking data pipeline: ingestion, the preprocessing
protocol (grading, entropy filtering, per-user splits), rank completion,
and batched per-user evaluation.
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
from .latent import hidden_posterior
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
    "parse_metrics",
]

DEFAULT_GRADES = 5
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


def _stable_order(*keys: tuple[np.ndarray, int]) -> np.ndarray:
    """``np.lexsort`` of integer keys, the last one primary, each given with
    a bound above its values (which are >= 0).  One stable argsort per key,
    the key cast to the smallest dtype that holds its bound, so keys below
    2**16 take numpy's radix sort."""
    order = None
    for key, bound in keys:
        key = key.astype(np.min_scalar_type(bound), copy=False)
        order = np.argsort(key, kind="stable") if order is None else (
            order[np.argsort(key[order], kind="stable")])
    return order


def _build_dataset(users: np.ndarray, items: np.ndarray, rates: np.ndarray) -> RatingsDataset:
    user_ids, dense_users = _dense_ids(users)
    item_ids, dense_items = _dense_ids(items)
    # held in their smallest dtype until the end: radix sort keys for ids
    # below 2**16, and fewer bytes for every pass below
    dense_users = dense_users.astype(np.min_scalar_type(len(user_ids)))
    dense_items = dense_items.astype(np.min_scalar_type(len(item_ids)))
    # duplicate (user, item) pairs: keep the last occurrence.  The sort is
    # stable, so the last record of each run of equal pairs in sorted order
    # is the pair's last record in file order.  Dropping the others leaves
    # every user and item in the data, so the dense indices stay valid.
    order = _stable_order((dense_items, len(item_ids)), (dense_users, len(user_ids)))
    last = np.zeros(len(order), dtype=bool)
    last[-1:] = True
    for ids in (dense_users, dense_items):
        run = ids[order]
        last[:-1] |= run[1:] != run[:-1]
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


def _misread_by_loadtxt(path: str, fmt: str) -> bool:
    """True if ``np.loadtxt`` may read the file otherwise than the per-line scan.

    numpy takes the bytes \\x1c-\\x1f as blanks and some non-ASCII letters
    as digits (``3\\u01fe`` reads 492), where ``int`` and ``float`` refuse
    them.  In a ``::`` file, an odd run of colons (``1:2:3``, ``1:::2``) makes
    splitting on ``:`` disagree with splitting on ``::``; with only even runs,
    column 2k of the ``:`` split is field k of the ``::`` split.  Chunks end
    at line ends, which no run spans, so the file is never held whole.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16) + fh.readline(), b""):
            if not chunk.isascii() or any(c in chunk for c in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return True
            if fmt == "movielens_dcolon" and _odd_colon_run(chunk):
                return True
    return False


def _odd_colon_run(chunk: bytes) -> bool:
    """True if ``chunk`` holds a run of an odd number of colons: then, and
    only then, pairing its colons in order pairs two that are not adjacent
    (or leaves one over)."""
    at = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord(":"))
    return len(at) % 2 == 1 or bool((at[1::2] - at[::2] != 1).any())


_INT64 = range(-(2**63), 2**63)  # the ids np.loadtxt can read


def _record(parts: list[str]) -> Optional[tuple[int, int, float]]:
    """The (user, item, rating) of a split line, or None if it is malformed."""
    # np.loadtxt takes no digit separator (1_000) and no non-ASCII digit
    if len(parts) < 3 or any("_" in p or not p.isascii() for p in parts[:3]):
        return None
    try:
        record = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        return None
    return record if record[0] in _INT64 and record[1] in _INT64 else None


def _scan_lines(path: str, fmt: str) -> list[tuple[int, int, float]]:
    """Per-line check of a file ``np.loadtxt`` refused: any malformed line is
    an error naming the count and the first; returns the (user, item,
    rating) of each line, as the check parsed them.  Blank lines are skipped.

    The file is read as bytes and split at \\n, \\r\\n and \\r, as text mode
    splits it; a line that is not UTF-8 is a malformed line.
    """
    sep, _, _, header = _FORMATS[fmt]
    good: list[tuple[int, int, float]] = []
    bad: list[int] = []
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:  # ends at \n; a lone \r in it ends a line too
            for raw in chunk.splitlines():
                lineno += 1
                if lineno <= header:
                    continue
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    bad.append(lineno)
                    continue
                if not line:
                    continue
                record = _record(line.split(sep))
                if record is None:
                    bad.append(lineno)
                else:
                    good.append(record)
    if bad:
        raise ValueError(f"{path}: {len(bad)} malformed lines (first at line {bad[0]})")
    return good


def load_ratings(path: str, fmt: str = "movielens_dcolon") -> RatingsDataset:
    """Parse ``user::item::rating[::...]`` or headed ``user,item,rating[,...]``
    rating files; fields after the rating (a timestamp, say) are ignored.

    A well-formed file is read whole by one ``np.loadtxt`` call, in blocks
    from the path unless the name has a compressed suffix or looks like a
    URL.  Otherwise a per-line scan raises on any malformed line, with the
    count and the first line's number, and gives the records it parsed.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    _, delimiter, usecols, header = _FORMATS[fmt]
    path = os.fspath(path)
    try:
        if _misread_by_loadtxt(path, fmt):
            raise ValueError("characters np.loadtxt misreads")
        with open(path) as fh, warnings.catch_warnings():  # a missing file fails here, with the OS's message
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            # numpy reads a path in blocks, but through its DataSource, which
            # decompresses by suffix and fetches URLs: those names keep the handle
            source = fh if "://" in path or path.endswith(_COMPRESSED) else path
            records = np.loadtxt(source, dtype=_RECORD, comments=None, delimiter=delimiter,
                                 usecols=usecols, skiprows=header, ndmin=1)
    except ValueError:
        records = np.array(_scan_lines(path, fmt), dtype=_RECORD)
    return _build_dataset(records["user"], records["item"], records["rating"])


def grade_ratings(
    ds: RatingsDataset, n_grades: int = DEFAULT_GRADES, scale: tuple[float, float] = DEFAULT_SCALE
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
    kept = _subset(ds, keep_mask[ds.items])
    kept_users, users = _present(np.zeros(ds.n_users, dtype=bool), kept.users)
    return replace(kept, users=users, items=(np.cumsum(keep_mask) - 1)[kept.items],
                   user_ids=ds.user_ids[kept_users], item_ids=ds.item_ids[keep_mask])


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
    """Records subset sharing the parent's dense user/item indexing; ``keep``
    is a mask over the records."""
    index = np.flatnonzero(keep)
    grades = ds.grades.take(index) if ds.grades is not None else None
    return replace(ds, users=ds.users.take(index), items=ds.items.take(index),
                   ratings=ds.ratings.take(index), grades=grades)


def _sample_positions(rng: random.Random, counts: list[int], k: int) -> list[int]:
    """``rng.sample(range(count), k)`` for each count in turn, concatenated.

    The draws are CPython's, inlined as ``sampler.advance_partition`` inlines
    them: ``randrange(m)`` is the ``getrandbits(m.bit_length())`` rejection
    loop, and ``sample`` keeps a pool of the positions when the count is at
    most its set size, 21 (plus 4 ** ceil(log4(3k)) when k > 5), and a set
    of the picks above.  The picks and the RNG state are those of ``sample``.
    """
    getrandbits = rng.getrandbits
    set_size = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    picks: list[int] = []
    for n in counts:
        if n <= set_size:  # pool path: swap each pick out of the first n - i positions
            pool = list(range(n))
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                picks.append(pool[j])
                pool[j] = pool[m - 1]
        else:  # set path: redraw below n until the position is new
            selected: set[int] = set()
            bits = n.bit_length()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                picks.append(j)
    return picks


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
    picks = _sample_positions(rng, counts[users].tolist(), spec.n_train)
    order = np.argsort(ds.users, kind="stable")  # records by user, then record index
    first = np.cumsum(counts) - counts
    chosen = np.repeat(first[users], spec.n_train) + np.array(picks, dtype=np.int64)
    train_keep = np.zeros(ds.n_records, dtype=bool)
    train_keep[order[chosen]] = True
    test_keep = eligible[ds.users] & ~train_keep
    return _subset(ds, train_keep), _subset(ds, test_keep)


def user_partitions(ds: RatingsDataset) -> dict[int, OrderedPartition]:
    """Each user's graded items as an ordered partition over the item catalog
    (block 0 = highest grade; item indices are catalog-wide)."""
    if ds.grades is None:
        raise ValueError("user_partitions needs a graded dataset")
    down = ds.grades.max(initial=0) - ds.grades  # descending grade as a key >= 0
    order = _stable_order((ds.items, ds.n_items), (down, int(down.max(initial=0)) + 1),
                          (ds.users, ds.n_users))  # by user, grade down, item up
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
    n_items = ds.n_items
    return {
        u: OrderedPartition._unchecked(tuple(blocks[a:b]), n_items)
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


def _mean_worth(m: CFParams, p: np.ndarray) -> np.ndarray:
    """u + W p: each item's order worth averaged over hidden activations ``p``."""
    if not isinstance(m, CFParams):
        raise ValueError("per-item worths need a worth-parameterized model")
    return m.u + m.W @ p


def complete_rank(
    seen: OrderedPartition, unseen: Iterable[int], m: CFParams
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


def parse_metrics(names: Sequence[str]) -> dict:
    """Metric names -> {canonical name: callable(grades, lengths=None,
    largest=None) -> one value per row of grades in predicted order (see
    ``metrics.ndcg_rows``)}.  Names are 'err' or 'ndcg@T'; each is stripped
    and lower-cased, blanks are skipped, T is written as an integer, and a
    metric named twice is kept once, in first-named order."""
    metrics = {}
    for name in names:
        name = name.strip().lower()
        if name == "err":
            metrics.setdefault(name, lambda grades, lengths=None, largest=None: err_rows(grades, lengths))
        elif name.startswith("ndcg@"):
            digits = name[len("ndcg@"):]
            try:
                if not (digits.isascii() and digits.isdigit()):  # int() takes " 5", "+5", "1_0", "\u0665"
                    raise ValueError
                t = int(digits)  # which fails past the interpreter's digit limit
            except ValueError:
                raise ValueError(f"metric {name!r}: truncation must be an integer") from None
            if t < 1:
                raise ValueError(f"metric {name!r}: truncation must be >= 1")
            metrics.setdefault(f"ndcg@{t}", lambda grades, lengths=None, largest=None, t=t:
                               ndcg_rows(grades, t, lengths, largest))
        elif name:
            raise ValueError(f"unknown metric {name!r}")
    if not metrics:
        raise ValueError("no metrics requested")
    return metrics


def _worth_coefficients(ds: RatingsDataset) -> tuple[np.ndarray, np.ndarray]:
    """``worth_features`` of every user's graded partition at once.

    Returns the within-grade pair count per user and the coefficient per
    record: 0.5 * (n_g - 1) + (the user's records graded below g), where g
    is the record's grade and n_g the number of the user's records of
    grade g.
    """
    # by user, then ascending grade (grade_ratings makes them positive)
    order = _stable_order((ds.grades, int(ds.grades.max(initial=0)) + 1), (ds.users, ds.n_users))
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


def _scored_test_records(
    params: CFParams, train_ds: RatingsDataset, test_ds: RatingsDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``complete_rank``'s scores for every user with training and test records at once:
    those users' test-record indices, by ascending user, then item; each
    user's record count; and the records' scores, |seen| * (u_j + W_j . p)
    with p the hidden posterior given the user's training partition."""
    pairs, coef = _worth_coefficients(train_ds)
    n_seen = np.bincount(train_ds.users, minlength=train_ds.n_users)
    keep = np.flatnonzero(n_seen[test_ds.users] > 0)
    n = test_ds.n_items
    keep = keep[_stable_order((test_ds.items[keep], n), (test_ds.users[keep], test_ds.n_users))]
    users, items = test_ds.users[keep], test_ds.items[keep]
    # each training key among the test keys, which are in (user, item) order
    keys = users * n + items
    seen = train_ds.users * n + train_ds.items
    at = np.minimum(np.searchsorted(keys, seen), len(keys) - 1)
    if len(keys) and (keys[at] == seen).any():
        raise ValueError("unseen items overlap the seen partition")
    # per hidden unit: log Omega_k of each user's training partition as one
    # weighted bincount (each user's first term is nu * pairs, so each sum is
    # np.add.at's left fold in record order), its posterior as
    # latent.unit_posteriors computes it (both branches), and its term of the
    # test records' hidden worths, which sum over the units as a left fold
    bins = np.concatenate([np.arange(train_ds.n_users), train_ds.users])
    terms = np.empty(len(bins))
    terms[: train_ds.n_users] = params.nu * pairs
    hidden_worth = np.zeros(len(keep))
    for w in params.W.T.copy():  # each unit's column made contiguous once
        terms[train_ds.n_users :] = coef * w[train_ds.items]
        x = np.bincount(bins, weights=terms, minlength=train_ds.n_users)
        e = np.exp(-np.abs(x))
        posterior = np.where(x >= 0, 1.0, e) / (1.0 + e)
        hidden_worth += w[items] * posterior[users]
    lengths = np.bincount(users)
    return keep, lengths[lengths > 0], n_seen[users] * (params.u[items] + hidden_worth)


_CELLS = 1 << 20  # bounds the padded matrices of one chunk of _ranked_metric_rows


def _ranked_metric_rows(metrics: dict, scores: np.ndarray, grades: np.ndarray, lengths: np.ndarray,
                        cells: int = _CELLS) -> np.ndarray:
    """The metrics (``parse_metrics``) of lists held one after another in
    ``grades``, each ranked by descending ``scores``, ties in stored order,
    as a (lists, metrics) array.  A chunk holds as many lists as fit in ``cells``
    at the longest list's width (at least one), one row each, padded: -score
    with NaN, which a stable ``argsort`` sorts after every value, NaN too,
    and grades with 0, which add nothing to a row.  A failure is that of all
    lists at once: the first metric that fails anywhere, as it fails on its
    first failing chunk (NDCG's overflow names the largest grade of all)."""
    rows, ends, largest = max(1, cells // int(lengths.max())), np.cumsum(lengths), grades.max()
    values = np.empty((len(lengths), len(metrics)))
    failure, active = None, len(metrics)
    for lo in range(0, len(lengths), rows):
        chunk = lengths[lo : lo + rows]
        filled = np.arange(chunk.max()) < chunk[:, None]
        records = slice(ends[lo] - chunk[0], ends[lo + len(chunk) - 1])
        keys = np.full(filled.shape, np.nan)
        keys[filled] = -scores[records]
        ranked = np.zeros(filled.shape)
        ranked[filled] = grades[records]
        ranked = np.take_along_axis(ranked, np.argsort(keys, axis=1, kind="stable"), axis=1)
        for col, metric in enumerate(list(metrics.values())[:active]):
            try:
                values[lo : lo + rows, col] = metric(ranked, chunk, largest)
            except ValueError as exc:  # metrics after this one no longer count
                failure, active = exc, col
                break
    if failure is not None:
        raise failure
    return values


def evaluate_ranking(
    params: CFParams,
    train_ds: RatingsDataset,
    test_ds: RatingsDataset,
    metrics: dict,
) -> dict:
    """Rank each user's test items given their training partition and average
    the metrics (``parse_metrics``) over users, under the same names.

    Deterministic: one pass against ``params`` scores every test item, then
    each chunk of users is ranked and measured at once; rankings equal
    ``complete_rank`` on ``user_partitions(train_ds)``.
    """
    if train_ds.grades is None or test_ds.grades is None:
        raise ValueError("evaluate_ranking needs graded datasets")
    records, lengths, scores = _scored_test_records(params, train_ds, test_ds)
    if not len(records):
        raise ValueError("no users with both training and test records")
    values = _ranked_metric_rows(metrics, scores, test_ds.grades[records], lengths)
    report = {"n_users": len(lengths), "metrics": {}}
    for col, name in enumerate(metrics):
        vals = values[:, col]
        report["metrics"][name] = {
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "per_user": vals,
        }
    return report
