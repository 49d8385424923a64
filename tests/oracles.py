"""Exact oracles that only the tests use, moved out of ``src/osmrank``.

Each definition is the library's former code, unchanged: the ordered-Bell
asymptote, as a log and as a float, the Stirling numbers, the proposal-object
MH step, the exact one-step kernel of the split-merge sampler and its chain reference
``run_chain`` (every step's partition kept in a list), the generic pair-table
model family (log-domain tie and order tables, log-linear features over
pairs, and a base table plus one table per hidden unit, ``LatentModel``,
with ``as_latent`` taking a pair model as the latent model with no hidden
units), the enumeration oracles of
training (exact sufficient statistics, gradients, likelihoods and draws), the
log joint weight and the scalar sigmoid, the annealed weight of one state
(``annealed_unnorm_log_prob``), the enumeration forms of log Z and of the
exact distribution (``exact_enumeration``, and ``exact_log_z`` and
``exact_distribution`` from it), which hold every state and weight at once,
partitions from graded ratings and text, and rank reconstruction from a posterior.  They are small-size references the fast
paths are checked against.  The pair tables go through the production
kernel and partition functions unchanged, which read a model by its
methods only.

The views of the production types that only tests take are plain
functions here, moved from their methods: ``from_blocks`` and
``covers_universe`` of an ``OrderedPartition``, ``tables`` and ``scaled``
of a worth model (a pair table keeps its own methods, which they call),
``unit_models`` of a ``CFParams`` or ``LatentModel``, and ``local_ratio``,
the closed form of a ``LocalWorths`` split ratio, written apart from the
``LocalWorths.ratio()`` closure the kernel calls.  A ``CFParams`` has no pair potentials of its own: ``pair_table``
tabulates its base ones, whose ``log_tie``/``log_order`` the reference
moves and pair sums (``log_ratio_split``, ``_single_move``) read.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from osmrank.combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
)
from osmrank.core import (
    LocalWorths,
    log_ratio_merge,
    log_ratio_split,
    log_weight,
    logsumexp,
    worth_features,
)
from osmrank.latent import hidden_posterior
from osmrank.learning import CFParams, GradientEstimate, _accumulate
from osmrank.partition_function import _softplus
from osmrank.pipeline import RankedList, _mean_worth, _rank
from osmrank.sampler import (
    LOG_HALF,
    MoveStats,
    SamplerConfig,
    _merge_log_q_ratio,
    _split_log_q_ratio,
    advance_partition,
    propose_merge,
    propose_split,
)


# osmrank.combinatorics: counts and the text form
def stirling2(n: int, t: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into t blocks."""
    if n < 0 or t < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    row = [1]  # S(m, 0..m), filled row by row from m = 0
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return row[t] if t <= n else 0


def log_fubini_asymptotic(n: int) -> float:
    """log of the n! / (2 (log 2)^(n+1)) asymptote, safe for any n."""
    if n < 1:
        raise ValueError("asymptotic formula needs n >= 1")
    log2 = math.log(2.0)
    return math.lgamma(n + 1) - log2 - (n + 1) * math.log(log2)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def fubini_asymptotic(n: int) -> float:
    """Closed-form asymptotic ordered-Bell count; overflows raise OverflowError."""
    log_value = log_fubini_asymptotic(n)
    if log_value >= _LOG_FLOAT_MAX:
        raise OverflowError(f"fubini_asymptotic({n}) exceeds float range; use log_fubini_asymptotic")
    return math.exp(log_value)


def from_blocks(blocks: Sequence[Sequence[int]], n_objects: int | None = None) -> OrderedPartition:
    tup = tuple(tuple(sorted(b)) for b in blocks)
    if n_objects is None:
        n_objects = 1 + max((x for b in tup for x in b), default=-1)
    return OrderedPartition(tup, n_objects)


def covers_universe(X: OrderedPartition) -> bool:
    return sum(len(b) for b in X.blocks) == X.n_objects


def parse_partition(text: str, n_objects: int | None = None) -> OrderedPartition:
    """Decode the '>'/',' text form; item order inside a block is irrelevant."""
    blocks = [[int(tok) for tok in part.split(",")] for part in text.strip().split(">")]
    return from_blocks(blocks, n_objects)


# osmrank.sampler: the proposal-object MH step, the exact kernel and the chain reference
def _single_move(
    X: OrderedPartition, m: PairPotentialModel, rng: random.Random
) -> tuple[OrderedPartition, Optional[str], bool]:
    """One MH transition built from the validated proposals; the reference
    kernel ``advance_partition`` is tested against.  Returns (next
    partition, proposed kind or None, accepted)."""
    can_split = any(len(b) > 1 for b in X.blocks)
    can_merge = X.n_blocks > 1
    if not can_split and not can_merge:
        return X, None, False
    if can_split and can_merge:
        kind = "split" if rng.random() < 0.5 else "merge"
        log_q_kind_fwd = LOG_HALF
    elif can_split:
        kind, log_q_kind_fwd = "split", 0.0
    else:
        kind, log_q_kind_fwd = "merge", 0.0

    if kind == "split":
        prop = propose_split(X, rng, m)
        # reverse kind (merge) competes with split at X' only if X' still has
        # a non-singleton block
        nt = len(X.blocks[prop.block_index])
        splittable_after = nt > 2 or sum(1 for b in X.blocks if len(b) > 1) > 1
        log_q_kind_rev = LOG_HALF if splittable_after else 0.0
    else:
        prop = propose_merge(X, rng, m)
        # reverse kind (split) competes with merge at X' only if X' has >= 2 blocks
        log_q_kind_rev = LOG_HALF if X.n_blocks - 1 >= 2 else 0.0

    log_accept = prop.log_l_ratio + prop.log_q_ratio + log_q_kind_rev - log_q_kind_fwd
    if log_accept >= 0.0 or rng.random() < math.exp(log_accept):
        return prop.proposed, kind, True
    return X, kind, False


def transition_matrix(
    m: CFParams | PairPotentialModel, states: Optional[list[OrderedPartition]] = None
) -> tuple[list[OrderedPartition], np.ndarray]:
    """Exact one-step kernel of ``advance_partition`` with ``steps=1`` over
    the full state space, on the pair sums of ``pair_table(m)``.

    Enumerates every proposal outcome with its analytic probability and the
    same acceptance rule the sampler applies.  Only viable for small
    n_objects; used to verify detailed balance and the stationary
    distribution against exp(log_weight)/Z.
    """
    m = pair_table(m)
    if states is None:
        states = list(enumerate_ordered_partitions(m.n_objects))
    index = {X.blocks: si for si, X in enumerate(states)}
    K = np.zeros((len(states), len(states)))

    for si, X in enumerate(states):
        T = X.n_blocks
        splittable = [t for t, b in enumerate(X.blocks) if len(b) > 1]
        can_split = bool(splittable)
        can_merge = T > 1
        if not can_split and not can_merge:
            K[si, si] = 1.0
            continue
        both = can_split and can_merge
        q_split_kind = (0.5 if both else 1.0) if can_split else 0.0
        q_merge_kind = (0.5 if both else 1.0) if can_merge else 0.0

        if can_split:
            log_q_kind_fwd = LOG_HALF if both else 0.0
            for t in splittable:
                block = X.blocks[t]
                nt = len(block)
                path_prob = q_split_kind / (len(splittable) * nt * (nt - 1) * 2 ** (nt - 2))
                splittable_after_base = len(splittable) > 1 or nt > 2
                for mask in range(1, (1 << nt) - 1):
                    A = tuple(block[i] for i in range(nt) if mask >> i & 1)
                    B = tuple(block[i] for i in range(nt) if not mask >> i & 1)
                    proposed = X.blocks[:t] + (A, B) + X.blocks[t + 1 :]
                    out_prob = path_prob * len(A) * len(B)
                    log_q = _split_log_q_ratio(len(splittable), nt, T, len(A) * len(B))
                    log_l = log_ratio_split(X, t, (A, B), m)
                    log_q_kind_rev = LOG_HALF if splittable_after_base else 0.0
                    alpha = min(1.0, math.exp(log_l + log_q + log_q_kind_rev - log_q_kind_fwd))
                    sj = index[proposed]
                    K[si, sj] += out_prob * alpha
                    K[si, si] += out_prob * (1.0 - alpha)

        if can_merge:
            log_q_kind_fwd = LOG_HALF if both else 0.0
            for t in range(T - 1):
                b1, b2 = X.blocks[t], X.blocks[t + 1]
                merged = tuple(sorted(b1 + b2))
                proposed = X.blocks[:t] + (merged,) + X.blocks[t + 2 :]
                t_merge = sum(1 for b in proposed if len(b) > 1)
                out_prob = q_merge_kind / (T - 1)
                log_q = _merge_log_q_ratio(T, t_merge, len(b1), len(b2))
                log_l = log_ratio_merge(X, t, m)
                log_q_kind_rev = LOG_HALF if T - 1 >= 2 else 0.0
                alpha = min(1.0, math.exp(log_l + log_q + log_q_kind_rev - log_q_kind_fwd))
                sj = index[proposed]
                K[si, sj] += out_prob * alpha
                K[si, si] += out_prob * (1.0 - alpha)

    return states, K


def run_chain(init: OrderedPartition, m, cfg: SamplerConfig) -> tuple[list[OrderedPartition], MoveStats]:
    """Run a chain from ``init`` on ``m`` (a model ``advance_partition``
    takes); returns thinned post-burn-in samples and stats.  Deterministic
    given cfg.seed."""
    rng = random.Random(cfg.seed)
    stats = MoveStats()
    burn = min(cfg.resolved_burn_in(), cfg.steps)
    X = advance_partition(init, m, rng, burn, stats)
    samples: list[OrderedPartition] = []
    for _ in range((cfg.steps - burn) // cfg.thin):
        X = advance_partition(X, m, rng, cfg.thin, stats)
        samples.append(X)
    # moves after the last sample still count in stats
    advance_partition(X, m, rng, (cfg.steps - burn) % cfg.thin, stats)
    return samples, stats


# osmrank.core: the generic pair-table family
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


def _unchecked_matrix_model(tie: np.ndarray, order: np.ndarray) -> MatrixPairModel:
    """Internal constructor bypassing validation for matrices known valid."""
    mdl = MatrixPairModel.__new__(MatrixPairModel)
    mdl.n_objects = tie.shape[0]
    mdl.tie = tie
    mdl.order = order
    return mdl


def scaled(m: CFParams | PairPotentialModel, factor: float) -> CFParams | PairPotentialModel:
    """Model with every log-potential multiplied by ``factor`` (tempering);
    a pair table scales itself."""
    if not isinstance(m, CFParams):
        return m.scaled(factor)
    return CFParams(m.nu * factor, m.u * factor, m.W * factor)


def tables(m: CFParams | PairPotentialModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense (tie, order) log-potential tables; diagonals are ignored.  A
    pair table gives its own; a worth model's are its base potentials,
    log phi(i~j) = nu + (u_i + u_j) / 2 and log psi(i>j) = u_i, each entry
    with the bits of that formula."""
    if not isinstance(m, CFParams):
        return m.tables()
    tie = m.nu + 0.5 * (m.u[:, None] + m.u[None, :])
    order = np.broadcast_to(m.u[:, None], (m.n_objects, m.n_objects)).copy()
    return tie, order


def pair_table(m: CFParams | PairPotentialModel) -> PairPotentialModel:
    """The pair model of ``tables(m)``: a worth model's base potentials,
    read by ``log_tie``/``log_order``.  A pair table is its own."""
    return m if isinstance(m, PairPotentialModel) else MatrixPairModel(*tables(m))


def local_ratio(
    ratio: LocalWorths | Callable[[Sequence[int], Sequence[int]], float], A: Sequence[int], B: Sequence[int]
) -> float:
    """The log weight ratio of a ``split_ratio`` result for splitting a block
    into A ranked just above B.  A ``LocalWorths`` gives the closed form of
    the pair sum, each sum a left fold in the order given, as the kernel
    folds it; a pair table's ratio is called."""
    if not isinstance(ratio, LocalWorths):
        return ratio(A, B)
    w = ratio.worths
    sum_a = sum_b = 0.0
    for a in A:
        sum_a += w[a]
    for b in B:
        sum_b += w[b]
    na, nb = len(A), len(B)
    return 0.5 * (nb * sum_a - na * sum_b) - ratio.nu * na * nb


def plain_model(nu: float, worth: np.ndarray) -> CFParams:
    """The worth model with no hidden units: ``CFParams(nu, worth, zeros(n, 0))``."""
    worth = np.asarray(worth, dtype=float)
    return CFParams(nu, worth, np.zeros((len(worth), 0)))


def uniform_pair_model(n: int) -> CFParams:
    """All potentials 1 (log 0): every ordered partition equally weighted.
    This is the worth model with nu = 0, every worth 0 and no hidden units,
    so it takes O(n) memory and every split ratio and log weight is exactly
    0.0."""
    return CFParams.zeros(n, 0)


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


# osmrank.latent
class LatentModel:
    """A base pair-potential model plus one pair-potential model per hidden unit.

    A plain pair model is the latent model with no hidden units.  This class
    works with any pair-model family: unit weights are pair sums and
    effective models are potential tables.  ``learning.CFParams`` replaces
    them with the worth-form closed forms.
    """

    def __init__(self, base: PairPotentialModel, hidden: Sequence[PairPotentialModel]):
        hidden = tuple(hidden)
        for hm in hidden:
            if hm.n_objects != base.n_objects:
                raise ValueError("all hidden potential models must share base.n_objects")
        self.base = base
        self.hidden = hidden
        self.n_objects = base.n_objects

    @property
    def n_hidden(self) -> int:
        return len(self.hidden)

    def log_weight(self, X: OrderedPartition) -> float:
        """log Omega(X), the base term."""
        return self.base.log_weight(X)

    def log_omegas(self, X: OrderedPartition) -> np.ndarray:
        """Vector of log Omega_k(X) over all hidden units."""
        return self.unit_weights([X])[0][0]

    def effective(self, active: Sequence[int]) -> PairPotentialModel:
        """The base potentials plus those of the hidden units indexed by ``active``."""
        tie, order = (table.copy() for table in tables(self.base))
        for k in active:
            ht, ho = tables(self.hidden[k])
            tie += ht
            order += ho
        return _unchecked_matrix_model(tie, order)

    def unit_weights(self, partitions: Sequence[OrderedPartition]) -> tuple[np.ndarray, list[None]]:
        """``log_omegas`` of each partition, as the rows of a (B, K) array,
        and what ``effective_at`` takes for each: nothing here."""
        logom = [log_weight(X, hm) for X in partitions for hm in self.hidden]
        return np.array(logom, dtype=float).reshape(len(partitions), self.n_hidden), [None] * len(partitions)

    def effective_at(self, gathered: None, active: Sequence[int], scale: float = 1.0) -> PairPotentialModel:
        """The model the kernel runs on with the hidden units ``active`` on:
        the effective model (the base when none is active), its
        log-potentials times ``scale``."""
        m = self.effective(active) if active else self.base
        return m if scale == 1.0 else scaled(m, scale)


def unit_models(m: CFParams | LatentModel) -> tuple[CFParams | PairPotentialModel, ...]:
    """Each hidden unit as its own model: a ``CFParams`` unit k is
    ``CFParams(nu, W[:, k], zeros(n, 0))``, built on each call."""
    if isinstance(m, LatentModel):
        return m.hidden
    return tuple(CFParams(m.nu, m.W[:, k], np.zeros((m.n_items, 0))) for k in range(m.n_hidden))


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def log_joint_weight(X: OrderedPartition, h: np.ndarray, m: CFParams | LatentModel) -> float:
    """log of Omega(X) * prod_k Omega_k(X)^{h_k}."""
    h = np.asarray(h)
    if h.shape != (m.n_hidden,):
        raise ValueError(f"hidden state must have shape ({m.n_hidden},)")
    total = log_weight(X, m)
    for hk, hm in zip(h, unit_models(m)):
        if hk:
            total += log_weight(X, hm)
    return total


# osmrank.learning: sufficient statistics and the enumeration oracles
def sufficient_stats(
    X: OrderedPartition, h: np.ndarray, n_items: int, n_hidden: int
) -> GradientEstimate:
    """Exact partials of log joint weight w.r.t. (nu, u, W) at (X, h).

    ``h`` may be a binary hidden state or a posterior vector; the statistics
    are linear in h, so posteriors give the exact conditional expectation.
    """
    if np.shape(h) != (n_hidden,):
        raise ValueError(f"h must have shape ({n_hidden},)")
    return GradientEstimate(*_accumulate([(X, h)], n_items, n_hidden))


def state_features(n: int, cap: int = 8) -> np.ndarray:
    """Per-state structural coefficients over all ordered partitions of n.

    Row s is [pairs, c_0, ..., c_{n-1}] for state s in enumeration order,
    so any worth model's log Omega over all states is one matrix-vector
    product.  Cached per n; the cap is checked on every call.
    """
    if n > cap:
        raise EnumerationCapError(
            f"state table of n={n} refused: fubini({n}) = {fubini(n)} states exceeds cap {cap}"
        )
    return _state_features(n)


@lru_cache(maxsize=None)
def _state_features(n: int) -> np.ndarray:
    return _feature_rows(enumerate_ordered_partitions(n), fubini(n), n)


def _feature_rows(partitions: Iterable[OrderedPartition], count: int, n: int) -> np.ndarray:
    """Rows [pairs, c_0, ..., c_{n-1}] for ``count`` partitions over n items."""
    F = np.zeros((count, n + 1))
    for s, X in enumerate(partitions):
        pairs, items, coef = worth_features(X)
        F[s, 0] = pairs
        F[s, 1 + items] = coef
    return F


def _cf_log_weights(p: CFParams, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(marginal log weights, per-unit log omegas) of the feature rows F."""
    log_base = F @ np.concatenate([[p.nu], p.u])
    log_omegas = F @ np.vstack([np.full(p.n_hidden, p.nu), p.W])
    return log_base + np.logaddexp(0.0, log_omegas).sum(axis=1), log_omegas


def _require_dense_cover(data: Sequence[OrderedPartition], n_items: int, what: str) -> None:
    for X in data:
        if X.n_objects != n_items or not covers_universe(X):
            raise ValueError(f"{what} requires partitions covering all {n_items} items")


def exact_log_likelihood(p: CFParams, data: Sequence[OrderedPartition], cap: int = 8) -> np.ndarray:
    """Per-datum exact log P(X) over partitions of the full item set."""
    _require_dense_cover(data, p.n_items, "exact_log_likelihood")
    marginal, _ = _cf_log_weights(p, state_features(p.n_items, cap))
    observed, _ = _cf_log_weights(p, _feature_rows(data, len(data), p.n_items))
    return observed - logsumexp(marginal)


def exact_gradient(
    p: CFParams, data: Sequence[OrderedPartition], n_cap: int = 6, k_cap: int = 4
) -> GradientEstimate:
    """Oracle gradient of the mean log-likelihood: data statistics (exact
    posteriors) minus the exact model expectation by enumeration."""
    if p.n_items > n_cap:
        raise EnumerationCapError(f"exact_gradient capped at {n_cap} items")
    if p.n_hidden > k_cap:
        raise EnumerationCapError(f"exact_gradient capped at {k_cap} hidden units")
    if not data:
        raise ValueError("need at least one observation")
    _require_dense_cover(data, p.n_items, "exact_gradient")

    F = state_features(p.n_items)
    marginal, log_omegas = _cf_log_weights(p, F)
    probs = np.exp(marginal - logsumexp(marginal))
    post = np.exp(-np.logaddexp(0.0, -log_omegas))  # sigmoid, (S, K)
    pair_counts = F[:, 0]
    C = F[:, 1:]

    model_nu = probs @ (pair_counts * (1.0 + post.sum(axis=1)))
    model_u = C.T @ probs
    model_W = C.T @ (probs[:, None] * post)

    data_nu, data_u, data_W = _accumulate(
        ((X, hidden_posterior(X, p)) for X in data), p.n_items, p.n_hidden
    )
    n = len(data)
    return GradientEstimate(data_nu / n - model_nu, data_u / n - model_u, data_W / n - model_W)


def sample_partitions_exact(
    p: CFParams, count: int, rng: np.random.Generator, cap: int = 8
) -> list[OrderedPartition]:
    """i.i.d. exact draws of X from the model (hidden units marginalized),
    via a categorical over the fully enumerated state space."""
    marginal, _ = _cf_log_weights(p, state_features(p.n_items, cap))
    probs = np.exp(marginal - logsumexp(marginal))
    probs /= probs.sum()
    chosen = rng.choice(len(probs), size=count, p=probs)
    wanted: dict[int, list[int]] = {}
    for pos, s in enumerate(chosen):
        wanted.setdefault(int(s), []).append(pos)
    out: list[Optional[OrderedPartition]] = [None] * count
    remaining = len(wanted)
    for s, X in enumerate(enumerate_ordered_partitions(p.n_items)):
        if s in wanted:
            for pos in wanted[s]:
                out[pos] = X
            remaining -= 1
            if remaining == 0:
                break
    return out  # type: ignore[return-value]


# osmrank.partition_function: the annealed weight, the enumeration forms of log Z and the distribution
def annealed_unnorm_log_prob(X: OrderedPartition, tau: float, m: CFParams) -> float:
    """log P*(X | tau): tau * log Omega(X) plus the marginalized hidden
    terms sum_k log(1 + Omega_k(X)^tau)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    tau = float(tau)
    total = tau * log_weight(X, m)
    for lo in m.log_omegas(X).tolist():
        total += _softplus(tau * lo)
    return total


def exact_enumeration(m: CFParams) -> tuple[float, list[OrderedPartition], np.ndarray]:
    """log Z, and all states with their exact probabilities (latent:
    X-marginal), from one weighing of each state by full enumeration (oracle).

    The hidden units are summed out analytically via the prod_k (1 + Omega_k)
    identity (the tau = 1 case of ``annealed_unnorm_log_prob``), so only
    partitions are enumerated.
    """
    states = list(enumerate_ordered_partitions(m.n_objects))
    logs = np.array([annealed_unnorm_log_prob(X, 1.0, m) for X in states])
    log_z = float(logsumexp(logs))
    probs = np.exp(logs - log_z)
    probs /= probs.sum()
    return log_z, states, probs


def exact_log_z(m: CFParams) -> float:
    """log Z by full enumeration (oracle)."""
    return exact_enumeration(m)[0]


def exact_distribution(m: CFParams) -> tuple[list[OrderedPartition], np.ndarray]:
    """All states with their exact probabilities (latent: X-marginal)."""
    _, states, probs = exact_enumeration(m)
    return states, probs


def as_latent(m: PairPotentialModel | LatentModel) -> LatentModel:
    """The one model shape the partition functions take: a pair model becomes K = 0 latent."""
    return m if isinstance(m, LatentModel) else LatentModel(m, ())


# osmrank.pipeline
def reconstruct_rank(
    posterior: np.ndarray, items: Iterable[int], m: LatentModel
) -> RankedList:
    """Complete ranking of ``items`` from a posterior activation vector:
    score(j) = u_j + sum_k posterior_k W_jk (worth-parameterized models)."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (m.n_hidden,):
        raise ValueError(f"posterior must have shape ({m.n_hidden},)")
    w = _mean_worth(m, posterior)
    return _rank({j: float(w[j]) for j in items})
