"""Log-linear model over ordered set partitions, in per-item worth form.

The unnormalized weight of a partition X factorizes over object pairs:
a symmetric tie potential phi(x_i ~ x_j) for objects sharing a block and
an order potential psi(x_i > x_j) for objects in distinct blocks, with
i's block ranked above j's.  Everything lives in the log domain.  The
model is ``learning.CFParams``: each item carries a log-worth, so log
Omega(X) is nu times X's within-block pair count plus a weighted sum of
the worths (``worth_features``).  The functions here read a model through
``n_objects``, ``log_weight(X)``, ``log_tie(i, j)`` and ``log_order(i, j)``
only; the last two are those of the pair tables in ``tests/oracles.py``,
which check the closed forms (a worth model's ``tables`` are there too).
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Callable, Sequence

import numpy as np

from .combinatorics import OrderedPartition

__all__ = [
    "log_weight",
    "log_ratio_split",
    "log_ratio_merge",
    "worth_features",
    "stack_worth_features",
    "LocalWorths",
    "logsumexp",
]


class LocalWorths:
    """A worth model at a chain's objects: ``nu`` and ``worths``, a dict from
    each object to its worth.  ``advance_partition`` takes it in place of the
    model and calls its ``ratio()`` for every proposal.
    """

    __slots__ = ("nu", "worths")

    def __init__(self, nu: float, worths: dict[int, float]):
        self.nu = nu
        self.worths = worths

    def ratio(self) -> Callable[[Sequence[int], Sequence[int]], float]:
        """The log weight ratio for splitting a block into A ranked just above
        B, as a plain function closed over ``nu`` and ``worths``.  It is the
        closed form of the pair sum: each (a, b) in A x B contributes
        (w_a - w_b) / 2 - nu, so the ratio is (|B| sum_A w - |A| sum_B w) / 2
        - nu |A||B|, each sum a left fold in the order given, as in
        ``CFParams.log_weight`` and the tests' ``local_ratio``."""
        nu, worths = self.nu, self.worths

        def ratio(A: Sequence[int], B: Sequence[int]) -> float:
            sum_a = sum_b = 0.0
            for x in A:
                sum_a += worths[x]
            for x in B:
                sum_b += worths[x]
            na, nb = len(A), len(B)
            return 0.5 * (nb * sum_a - na * sum_b) - nu * na * nb

        return ratio


def worth_features(X: OrderedPartition) -> tuple[int, np.ndarray, np.ndarray]:
    """Structural coefficients of log Omega under a worth model.

    Returns (m, items, c): m = number of within-block pairs, ``items`` the
    partition's objects in block order and ``c`` their coefficients,
    c = 0.5 * (within-block pairs touching the item) + (objects ranked
    below it), so that log Omega(X) = nu * m + sum(c * w[items]).

    Computed once per partition object and kept on it (partitions are
    frozen); both arrays are read-only.
    """
    if X._feature_items is None:
        _fill_worth_features([X])
    return X._feature_pairs, X._feature_items, X._feature_coef


def stack_worth_features(
    partitions: Sequence[OrderedPartition],
) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """``worth_features`` of many partitions, stacked: each partition's
    within-block pair count and object count, and the objects of all the
    partitions one after another (each in block order) with their
    coefficients."""
    missing = [X for X in partitions if X._feature_items is None]
    if missing:
        _fill_worth_features(missing)
    if not partitions:
        return [], [], np.zeros(0, dtype=int), np.zeros(0)
    items = [X._feature_items for X in partitions]
    return (
        [X._feature_pairs for X in partitions],
        [len(a) for a in items],
        np.concatenate(items),
        np.concatenate([X._feature_coef for X in partitions]),
    )


def _fill_worth_features(partitions: Sequence[OrderedPartition]) -> None:
    """Give each partition its ``worth_features`` from one numpy pass over
    all their blocks, as read-only views of the pass's two arrays.  The
    coefficients are half-integers, so every float is exact."""
    blocks = [b for X in partitions for b in X.blocks]
    n_blocks = [len(X.blocks) for X in partitions]
    sizes = np.fromiter(map(len, blocks), dtype=int, count=len(blocks))
    ends = sizes.cumsum()  # objects up to the end of each block
    items = np.fromiter(chain.from_iterable(blocks), dtype=int, count=int(ends[-1]) if blocks else 0)
    bounds = np.fromiter(accumulate(n_blocks, initial=0), dtype=int, count=len(n_blocks) + 1)  # of the blocks
    stops = np.append(0, ends)[bounds]  # bounds of the partitions' objects
    below = stops[1:].repeat(n_blocks) - ends  # objects of the partition ranked below the block
    coef = (0.5 * (sizes - 1) + below).repeat(sizes)
    pairs = np.append(0, (sizes * (sizes - 1) // 2).cumsum())[bounds]
    items.flags.writeable = coef.flags.writeable = False
    stops = stops.tolist()
    for X, start, stop, m in zip(partitions, stops, stops[1:], (pairs[1:] - pairs[:-1]).tolist()):
        object.__setattr__(X, "_feature_pairs", m)
        object.__setattr__(X, "_feature_items", items[start:stop])
        object.__setattr__(X, "_feature_coef", coef[start:stop])


def log_weight(X: OrderedPartition, m) -> float:
    """log Omega(X): tie terms over within-block pairs plus order terms over
    all cross-block pairs (higher-ranked object first)."""
    if X.n_objects != m.n_objects:
        raise ValueError(f"partition indexes {X.n_objects} objects, model has {m.n_objects}")
    return m.log_weight(X)


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f``, ``math.exp`` or ``math.log``, of each element, 2^16 at a time:
    numpy's own exp and log round differently on each CPU it dispatches to."""
    out, flat, chunk = np.empty(x.size), x.ravel(), 1 << 16
    for start in range(0, x.size, chunk):
        out[start : start + chunk] = list(map(f, flat[start : start + chunk].tolist()))
    return out.reshape(x.shape)


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-d array, shifted by the maximum; the maximal
    entries are taken out of the shifted sum and counted (log1p for precision)."""
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    is_max = a == a_max
    ties = np.count_nonzero(is_max)
    with np.errstate(invalid="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max)) / ties
    out = np.log1p(s) + np.log(ties) + a_max
    return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))  # infinite or nan entries


def log_ratio_split(
    X: OrderedPartition,
    t: int,
    assignment: tuple[Sequence[int], Sequence[int]],
    m,
) -> float:
    """log of the weight ratio Omega(X') / Omega(X) for splitting block t
    into (A, B), A ranked just above B.

    Only the |A| * |B| pairs that change relation contribute: each moves
    from tied to ordered, so the ratio is prod psi(a > b) / phi(a ~ b).
    """
    A, B = assignment
    if t >= X.n_blocks:
        raise ValueError("block index out of range")
    block = set(X.blocks[t])
    if len(block) < 2:
        raise ValueError("cannot split a singleton block")
    sa, sb = set(A), set(B)
    if not sa or not sb or sa & sb or sa | sb != block:
        raise ValueError("assignment must bipartition the block into non-empty halves")
    total = 0.0
    for i in A:
        for j in B:
            total += m.log_order(i, j) - m.log_tie(i, j)
    return total


def log_ratio_merge(X: OrderedPartition, t: int, m) -> float:
    """log weight ratio for merging consecutive blocks t and t+1 (inverse split)."""
    if t + 1 >= X.n_blocks:
        raise ValueError("merge needs a successor block")
    total = 0.0
    for i in X.blocks[t]:
        for j in X.blocks[t + 1]:
            total += m.log_tie(i, j) - m.log_order(i, j)
    return total
