"""Log-linear model over ordered set partitions.

The unnormalized weight of a partition X factorizes over object pairs:
a symmetric tie potential phi(x_i ~ x_j) for objects sharing a block and
an order potential psi(x_i > x_j) for objects in distinct blocks, with
i's block ranked above j's.  Everything lives in the log domain; a model
is a ``PairPotentialModel`` subclass exposing ``n_objects``,
``log_tie(i, j)`` and ``log_order(i, j)``.  Subclasses with closed forms
override ``log_weight`` and ``tables``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .combinatorics import OrderedPartition

__all__ = [
    "PairPotentialModel",
    "MatrixPairModel",
    "WorthPairModel",
    "LogLinearParams",
    "uniform_pair_model",
    "loglinear_pair_model",
    "log_weight",
    "log_ratio_split",
    "log_ratio_merge",
    "from_graded_ratings",
    "worth_features",
    "logsumexp",
]


class PairPotentialModel:
    """Interface: log-domain pairwise tie and order potentials."""

    n_objects: int

    def log_tie(self, i: int, j: int) -> float:
        raise NotImplementedError

    def log_order(self, i: int, j: int) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "PairPotentialModel":
        """Model with every log-potential multiplied by ``factor`` (tempering)."""
        raise NotImplementedError

    def log_weight(self, X: OrderedPartition) -> float:
        """log Omega(X) as the pair sum; ``log_weight(X, m)`` checks sizes first."""
        total = 0.0
        for i, j in within_block_pairs(X):
            total += self.log_tie(i, j)
        for i, j in cross_block_pairs(X):
            total += self.log_order(i, j)
        return total

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (tie, order) log-potential tables; diagonals are ignored."""
        raise NotImplementedError

    def split_ratio(self, objects: Sequence[int]) -> Callable[[Sequence[int], Sequence[int]], float]:
        """The local log weight ratio for partitions of ``objects``: a function
        of (A, B) giving log Omega(X') / Omega(X) for splitting a block into A
        ranked just above B.  Merging A and B back has the negated ratio.

        This is the pair sum of ``log_ratio_split`` without its checks."""
        log_order, log_tie = self.log_order, self.log_tie

        def ratio(A: Sequence[int], B: Sequence[int]) -> float:
            total = 0.0
            for i in A:
                for j in B:
                    total += log_order(i, j) - log_tie(i, j)
            return total

        return ratio


class MatrixPairModel(PairPotentialModel):
    """Potentials tabulated as dense n x n matrices.

    ``tie`` must be symmetric; diagonals are ignored.  ``order[i, j]`` is
    log psi(x_i > x_j) for i ranked above j.
    """

    def __init__(self, tie: np.ndarray, order: np.ndarray):
        tie = np.asarray(tie, dtype=float)
        order = np.asarray(order, dtype=float)
        if tie.shape != order.shape or tie.ndim != 2 or tie.shape[0] != tie.shape[1]:
            raise ValueError("tie and order must be square matrices of equal shape")
        if not np.allclose(tie, tie.T):
            raise ValueError("tie matrix must be symmetric")
        if not (np.isfinite(tie).all() and np.isfinite(order).all()):
            raise ValueError("potentials must be finite")
        self.n_objects = tie.shape[0]
        self.tie = tie
        self.order = order

    def log_tie(self, i: int, j: int) -> float:
        return self.tie[i, j]

    def log_order(self, i: int, j: int) -> float:
        return self.order[i, j]

    def scaled(self, factor: float) -> "MatrixPairModel":
        # scaling preserves symmetry/finiteness; skip re-validation
        return _unchecked_matrix_model(self.tie * factor, self.order * factor)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self.tie, self.order


class WorthPairModel(PairPotentialModel):
    """Per-item worth parameterization used by the collaborative-ranking model.

    Each item i carries a log-worth w_i; ties get ``nu + (w_i + w_j) / 2``
    (compatible items have positively correlated worths) and orderings get
    the winner's worth ``w_i``.
    """

    def __init__(self, nu: float, worth: np.ndarray):
        worth = np.asarray(worth, dtype=float)
        if worth.ndim != 1 or not np.isfinite(worth).all() or not np.isfinite(nu):
            raise ValueError("worth must be a finite 1-d vector, nu finite")
        self.nu = float(nu)
        self.worth = worth
        self.n_objects = worth.shape[0]

    def log_tie(self, i: int, j: int) -> float:
        return self.nu + 0.5 * (self.worth[i] + self.worth[j])

    def log_order(self, i: int, j: int) -> float:
        return self.worth[i]

    def scaled(self, factor: float) -> "WorthPairModel":
        return WorthPairModel(self.nu * factor, self.worth * factor)

    def log_weight(self, X: OrderedPartition) -> float:
        pairs, items, coef = worth_features(X)
        # a left fold in block order: seeded AIS outputs depend on its rounding,
        # and the builtin float sum is compensated from Python 3.12
        total = 0.0
        for term in (self.worth[items] * coef).tolist():
            total += term
        return self.nu * pairs + total

    def worths_at(self, objects: np.ndarray) -> np.ndarray:
        """The worths at the index array ``objects``."""
        return self.worth[objects]

    def split_ratio(self, objects: Sequence[int]) -> Callable[[Sequence[int], Sequence[int]], float]:
        """Closed form of the pair sum: each (a, b) in A x B contributes
        (w_a - w_b) / 2 - nu, so the ratio is (|B| sum_A w - |A| sum_B w) / 2
        - nu |A||B|.  The worths of ``objects`` are gathered once, here, and
        each side is a left fold, as in ``log_weight``."""
        objects = list(objects)
        w = dict(zip(objects, self.worths_at(np.array(objects, dtype=np.intp)).tolist()))
        nu = self.nu

        def ratio(A: Sequence[int], B: Sequence[int]) -> float:
            sum_a = sum_b = 0.0
            for a in A:
                sum_a += w[a]
            for b in B:
                sum_b += w[b]
            na, nb = len(A), len(B)
            return 0.5 * (nb * sum_a - na * sum_b) - nu * na * nb

        return ratio

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * self.worth
        tie = self.nu + half[:, None] + half[None, :]
        order = np.broadcast_to(self.worth[:, None], (self.n_objects, self.n_objects)).copy()
        return tie, order


def _unchecked_matrix_model(tie: np.ndarray, order: np.ndarray) -> MatrixPairModel:
    """Internal constructor bypassing validation for matrices known valid."""
    mdl = MatrixPairModel.__new__(MatrixPairModel)
    mdl.n_objects = tie.shape[0]
    mdl.tie = tie
    mdl.order = order
    return mdl


def uniform_pair_model(n: int) -> WorthPairModel:
    """All potentials 1 (log 0): every ordered partition equally weighted.
    This is the worth model with nu = 0 and every worth 0, so it takes O(n)
    memory and every split ratio and log weight is exactly 0.0."""
    return WorthPairModel(0.0, np.zeros(n))


@dataclass
class LogLinearParams:
    """Weights and feature evaluators for log-linear pair potentials.

    ``tie_features[a](i, j)`` and ``order_features[b](i, j)`` are
    deterministic real-valued features; log phi = sum_a alpha_a f_a and
    log psi = sum_b beta_b g_b.
    """

    alpha: np.ndarray
    beta: np.ndarray
    tie_features: Sequence[Callable[[int, int], float]]
    order_features: Sequence[Callable[[int, int], float]]

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if len(self.alpha) != len(self.tie_features):
            raise ValueError("alpha length must match tie feature count")
        if len(self.beta) != len(self.order_features):
            raise ValueError("beta length must match order feature count")


def loglinear_pair_model(params: LogLinearParams, n_objects: int) -> MatrixPairModel:
    """Tabulate the log-linear potentials over all object pairs.

    The tie table is symmetrized via f_a evaluated on sorted pairs, so tie
    features need not be written symmetric themselves.
    """
    tie = np.zeros((n_objects, n_objects))
    order = np.zeros((n_objects, n_objects))
    for i in range(n_objects):
        for j in range(n_objects):
            if i == j:
                continue
            lo, hi = (i, j) if i < j else (j, i)
            tie[i, j] = sum(a * f(lo, hi) for a, f in zip(params.alpha, params.tie_features))
            order[i, j] = sum(b * g(i, j) for b, g in zip(params.beta, params.order_features))
    return MatrixPairModel(tie, order)


def within_block_pairs(X: OrderedPartition) -> Iterator[tuple[int, int]]:
    for block in X.blocks:
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                yield block[a], block[b]


def cross_block_pairs(X: OrderedPartition) -> Iterator[tuple[int, int]]:
    """(i, j) with i's block ranked strictly above j's."""
    for t in range(len(X.blocks)):
        for u in range(t + 1, len(X.blocks)):
            for i in X.blocks[t]:
                for j in X.blocks[u]:
                    yield i, j


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
        pairs, items, coef = _compute_worth_features(X)
        object.__setattr__(X, "_feature_pairs", pairs)
        object.__setattr__(X, "_feature_items", items)
        object.__setattr__(X, "_feature_coef", coef)
    return X._feature_pairs, X._feature_items, X._feature_coef


def _compute_worth_features(X: OrderedPartition) -> tuple[int, np.ndarray, np.ndarray]:
    m = 0
    items: list[int] = []
    c: list[float] = []
    below = sum(len(b) for b in X.blocks)
    for block in X.blocks:
        size = len(block)
        below -= size
        m += size * (size - 1) // 2
        items.extend(block)
        c.extend([0.5 * (size - 1) + below] * size)
    items_arr, c_arr = np.array(items, dtype=int), np.array(c, dtype=float)
    items_arr.flags.writeable = c_arr.flags.writeable = False
    return m, items_arr, c_arr


def log_weight(X: OrderedPartition, m: PairPotentialModel) -> float:
    """log Omega(X): tie terms over within-block pairs plus order terms over
    all cross-block pairs (higher-ranked object first)."""
    if X.n_objects != m.n_objects:
        raise ValueError(f"partition indexes {X.n_objects} objects, model has {m.n_objects}")
    return m.log_weight(X)


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
    m: PairPotentialModel,
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


def log_ratio_merge(X: OrderedPartition, t: int, m: PairPotentialModel) -> float:
    """log weight ratio for merging consecutive blocks t and t+1 (inverse split)."""
    if t + 1 >= X.n_blocks:
        raise ValueError("merge needs a successor block")
    total = 0.0
    for i in X.blocks[t]:
        for j in X.blocks[t + 1]:
            total += m.log_tie(i, j) - m.log_order(i, j)
    return total


def from_graded_ratings(grades: dict[int, float], n_objects: int | None = None) -> OrderedPartition:
    """Group objects by equal grade, blocks ordered by decreasing grade."""
    if not grades:
        raise ValueError("grades must be non-empty")
    by_grade: dict[float, list[int]] = {}
    for obj, g in grades.items():
        by_grade.setdefault(g, []).append(obj)
    blocks = [tuple(sorted(by_grade[g])) for g in sorted(by_grade, reverse=True)]
    if n_objects is None:
        n_objects = 1 + max(grades)
    return OrderedPartition(tuple(blocks), n_objects)
