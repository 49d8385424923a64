"""Maximum-likelihood training for the collaborative-ranking parameterization.

Items carry log-worths: theta = e^nu, phi(x_i) = e^{u_i} and, per hidden
unit k, phi_k(x_i) = e^{W_ik}.  Ties get theta * sqrt(phi phi), orderings
the winner's worth.  Gradients are data statistics (with exact hidden
posteriors) minus model statistics estimated from short persistent
per-user chains.  The enumeration oracle the tests check this against
(exact gradients, likelihoods and draws at small sizes) is in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import random
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import LocalWorths, stack_worth_features, worth_features
from .latent import gibbs_mh_step, unit_posteriors

__all__ = [
    "CFParams",
    "GradientEstimate",
    "TrainConfig",
    "cf_latent_model",
    "estimate_gradient",
    "pairwise_disagreement",
    "trainable_users",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = "osmrank-checkpoint"
CHECKPOINT_VERSION = 1

_FLOAT_BOUND = sys.float_info.max / 4


@dataclass(frozen=True)
class CFParams:
    """The collaborative-ranking latent model, held as its free parameters:
    scalar nu, per-item worths u and per-item-per-unit worths W.  It is the
    one model type of the package: with K = 0 it is the plain worth model,
    and ``zeros(n, 0)`` is the uniform model over n objects.

    Its base potentials are log phi(i~j) = nu + (u_i + u_j)/2 and
    log psi(i>j) = u_i (``log_weight``, ``split_ratio``); hidden unit k has
    the same form over ``W[:, k]``, sharing nu, so effective models are
    ``CFParams`` with K = 0 and unit weights come from one set of structural
    features.  Frozen, and refuses parameters past the float bound.
    """

    nu: float
    u: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        nu, u, W = float(self.nu), np.asarray(self.u, dtype=float), np.asarray(self.W, dtype=float)
        if u.ndim != 1 or W.ndim != 2 or W.shape[0] != u.shape[0]:
            raise ValueError("u must be (n_items,), W must be (n_items, K)")
        if not (np.isfinite(nu) and np.isfinite(u).all() and np.isfinite(W).all()):
            raise ValueError("parameters must be finite")
        # The float bound: t (K + 1) n^2 <= max / 4, t the largest |parameter|, n = n_items,
        # in Python floats (an overflow is inf).  A partition's worth coefficients and its
        # within-block pair count each sum to n (n - 1) / 2, so |log Omega|, |log Omega_k| and
        # their partial sums are <= n (n - 1) t; an effective worth or nu sums <= K + 1
        # parameters, so an effective model (K = 0) is inside the bound too; a split ratio's
        # terms (|B| sum_A w, nu |A| |B|) are <= (K + 1) n^2 t; an AIS run weight is
        # <= (K + 1) n (n - 1) t, doubled by the ESS; eval's scores are <= n (K + 1) t.  All
        # stay below max / 2; change the bound only with the same proof.
        n, k = W.shape
        top = max(abs(nu), float(np.abs(u).max(initial=0.0)), float(np.abs(W).max(initial=0.0)))
        factor = (k + 1) * n ** 2
        if top * factor > _FLOAT_BOUND:
            raise ValueError(f"parameters past the float bound: the largest |parameter|, {top:.6g}, "
                             f"times (K + 1) n_items^2 = {factor} is above {_FLOAT_BOUND:.6g}")
        for name, value in zip(("nu", "u", "W", "n_items", "n_objects", "n_hidden"), (nu, u, W, n, n, k)):
            object.__setattr__(self, name, value)

    def log_weight(self, X: OrderedPartition) -> float:
        """log Omega(X), the base term; ``log_weight(X, m)`` checks sizes first."""
        pairs, items, coef = worth_features(X)
        # a left fold in block order: seeded AIS outputs depend on its rounding,
        # and the builtin float sum is compensated from Python 3.12
        total = 0.0
        for term in (self.u[items] * coef).tolist():
            total += term
        return self.nu * pairs + total

    def split_ratio(self, objects: Sequence[int]) -> LocalWorths:
        """The base worths of ``objects``, gathered once, with nu: the closed
        form of the pair sum (see ``LocalWorths``)."""
        objects = list(objects)
        return LocalWorths(self.nu, dict(zip(objects, self.u[np.array(objects, dtype=np.intp)].tolist())))

    def log_omegas(self, X: OrderedPartition) -> np.ndarray:
        """Vector of log Omega_k(X) over all hidden units."""
        return self.unit_weights([X])[0][0]

    def unit_weights(
        self, partitions: Sequence[OrderedPartition]
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """``log_omegas`` of each partition, as the rows of a (B, K) array,
        and each partition's objects in block order with their rows of
        ``W``, which ``effective_at`` takes.

        The partitions are grouped by object count n.  Each count takes one
        gather of ``W[items]`` and one ``np.matmul`` of (B_n, 1, n) by
        (B_n, n, K), which runs the gemv ``coef @ W[items]`` of each
        partition, so a row has the bits of that partition alone;
        ``nu * pairs`` is added after.
        """
        features = [worth_features(X) for X in partitions]
        rows_of = {}  # object count -> the rows with it
        for row, (_, items, _) in enumerate(features):
            rows_of.setdefault(len(items), []).append(row)
        logom = np.empty((len(features), self.n_hidden))
        entries = [None] * len(features)
        for n, rows in rows_of.items():
            items = np.array([features[row][1] for row in rows])
            coef = np.array([features[row][2] for row in rows]).reshape(len(rows), 1, n)
            Wx = self.W.take(items, axis=0)  # the one gather of W[items] for this count
            logom[rows] = np.matmul(coef, Wx)[:, 0]
            for row, entry in zip(rows, zip(items, Wx)):
                entries[row] = entry
        logom += np.array([[self.nu * pairs] for pairs, _, _ in features], dtype=float).reshape(-1, 1)
        return logom, entries

    def _effective_nu(self, active: Sequence[int]) -> float:
        extra = 0.0
        for _ in active:  # a left fold, as in log_weight
            extra += self.nu
        return self.nu + extra

    def effective(self, active: Sequence[int]) -> "CFParams":
        """The K = 0 model of the hidden units ``active`` on, over the catalog:
        ``CFParams(nu + nu |active|, u + (W[:, k1] + W[:, k2] + ...), zeros(n, 0))``."""
        return CFParams(self._effective_nu(active), self.u + sum(self.W[:, k] for k in active), self.W[:, :0])

    def effective_at(
        self, gathered: tuple[np.ndarray, np.ndarray], active: Sequence[int], scale: float = 1.0
    ) -> LocalWorths:
        """``effective(active)``'s ``split_ratio`` with its log-potentials
        times ``scale``, at the objects of a partition X only, from X's entry
        in the gathered rows of ``unit_weights``: a sweep over a user's items
        costs O(|items| |active|) whatever the catalog size.  The worths are
        those of the catalog-wide model, summed in the same grouping."""
        items, Wx = gathered
        worths, nu = self.u[items], self.nu
        if active:
            first, *rest = active
            hidden = Wx[:, first]
            for k in rest:
                hidden = hidden + Wx[:, k]
            worths = worths + hidden
            nu = self._effective_nu(active)
        if scale != 1.0:
            worths, nu = worths * scale, nu * scale
        return LocalWorths(nu, dict(zip(items.tolist(), worths.tolist())))

    def copy(self) -> "CFParams":
        return CFParams(self.nu, self.u.copy(), self.W.copy())

    @staticmethod
    def zeros(n_items: int, n_hidden: int) -> "CFParams":
        return CFParams(0.0, np.zeros(n_items), np.zeros((n_items, n_hidden)))

    @staticmethod
    def random_init(
        n_items: int, n_hidden: int, rng: np.random.Generator, scale: float = 0.01
    ) -> "CFParams":
        """Small symmetric init; nu starts at 0."""
        return CFParams(
            0.0,
            rng.uniform(-scale, scale, size=n_items),
            rng.uniform(-scale, scale, size=(n_items, n_hidden)),
        )


@dataclass
class GradientEstimate:
    d_nu: float
    d_u: np.ndarray
    d_W: np.ndarray


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    block_size: int = 100
    chain_steps_per_update: int = 1
    epochs: int = 1
    n_hidden: int = 10
    seed: int = 0
    l2: float = 0.0
    init_scale: float = 0.01

    def __post_init__(self):
        # the bounds of train's --lr and --l2 flags; inf and nan fail too
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a finite number > 0")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError("l2 must be a finite number >= 0")
        if not 0.0 <= self.init_scale < math.inf:
            raise ValueError("init_scale must be a finite number >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.chain_steps_per_update < 1:
            raise ValueError("chain_steps_per_update must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.n_hidden < 0:
            raise ValueError("n_hidden must be >= 0")


def cf_latent_model(p: CFParams) -> CFParams:
    """``p`` itself: ``CFParams`` is the latent model.  Kept for the benchmark
    harness, which traces this name and calls it from its set-up probe."""
    return p


def _accumulate(
    entries: Iterable[tuple[OrderedPartition, np.ndarray]], n_items: int, n_hidden: int,
    features: Optional[tuple] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed partials of log joint weight w.r.t. (nu, u, W) over (X, h) pairs.

    The features of all the entries come from one ``stack_worth_features``
    pass (``features``, when the caller has it), then u and W take one
    weighted ``bincount`` each.  ``bincount``
    adds its weights in input order, and an entry's items are distinct, so
    every coordinate receives its additions in entry order, as from a loop
    over the entries; d_nu is a left fold in entry order.
    """
    entries = list(entries)
    if features is None:
        features = stack_worth_features([X for X, _ in entries])
    pairs, counts, items, coef = features
    H = np.fromiter(chain.from_iterable(h for _, h in entries), dtype=float).reshape(len(entries), n_hidden)
    d_nu = 0.0
    for m, h_sum in zip(pairs, H.sum(axis=1).tolist()):
        d_nu += m * (1.0 + h_sum)
    d_u = np.bincount(items, weights=coef, minlength=n_items)
    cells = (items * n_hidden)[:, None] + np.arange(n_hidden)  # (item, unit) in row-major order
    terms = coef[:, None] * np.repeat(H, counts, axis=0)
    d_W = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=n_items * n_hidden)
    return d_nu, d_u, d_W.reshape(n_items, n_hidden)


def estimate_gradient(
    observed: Sequence[tuple[OrderedPartition, np.ndarray]],
    model_samples: Sequence[tuple[OrderedPartition, np.ndarray]],
    n_items: int,
    n_hidden: int,
    model_features: Optional[tuple] = None,
) -> GradientEstimate:
    """Stochastic log-likelihood gradient: mean data statistics (hidden
    posteriors) minus mean model statistics (sampled hidden states).
    ``model_features``, when given, is ``stack_worth_features`` of the
    model samples' partitions."""
    if not observed or not model_samples:
        raise ValueError("need at least one observed and one model sample")
    obs_nu, obs_u, obs_W = _accumulate(observed, n_items, n_hidden)
    mod_nu, mod_u, mod_W = _accumulate(model_samples, n_items, n_hidden, model_features)
    n_obs, n_mod = len(observed), len(model_samples)
    return GradientEstimate(
        obs_nu / n_obs - mod_nu / n_mod,
        obs_u / n_obs - mod_u / n_mod,
        obs_W / n_obs - mod_W / n_mod,
    )


def pairwise_disagreement(sample: OrderedPartition, observed: OrderedPartition) -> float:
    """Portion of object pairs whose relation (tie / above / below) differs."""
    objects = sample.objects
    if objects != observed.objects:
        raise ValueError("partitions must cover the same objects")
    width = len(objects)
    return float(_disagreements(_rank_rows([sample], width), _rank_rows([observed], width))[0])


def _rank_rows(
    partitions: Sequence[OrderedPartition], width: int, features: Optional[tuple] = None
) -> np.ndarray:
    """One row per partition: a rank key of each of its objects, in
    ascending object order, padded with -1 to ``width`` columns.

    The key is twice the object's worth coefficient (``worth_features``),
    an integer that is equal within a block and falls from each block to
    the next, so comparing two keys of a row compares their blocks.  The
    features are ``stack_worth_features`` of the partitions (``features``,
    when the caller has it), which leaves each new partition its own.
    """
    _, counts, items, coef = stack_worth_features(partitions) if features is None else features
    rows = np.repeat(np.arange(len(partitions)), counts)
    starts = np.cumsum(counts) - counts
    span = int(items.max()) + 1 if len(items) else 0
    keys = (2 * coef).astype(np.min_scalar_type(2 * width))  # a coefficient is below width
    out = np.full((len(partitions), width), -1, dtype=np.result_type(keys, np.int8))
    out[rows, np.arange(len(items)) - starts[rows]] = keys[np.argsort(rows * span + items)]
    return out


_DISAGREEMENT_CELLS = 1 << 20  # bounds the (rows, width, width) sign arrays of one pass


def _disagreements(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``pairwise_disagreement`` of each row pair of two ``_rank_rows`` arrays
    over the same objects.

    Padding ranks below every rank in both arrays, so padded pairs never
    disagree.  Each value is one division of two integer counts, so it is
    the correctly rounded fraction.
    """
    n_objects = (a >= 0).sum(axis=1)
    pairs = n_objects * (n_objects - 1) // 2
    mismatches = np.zeros(len(a), dtype=np.int64)
    step = max(1, _DISAGREEMENT_CELLS // max(1, a.shape[1] ** 2))
    for lo in range(0, len(a), step):
        ra, rb = a[lo : lo + step], b[lo : lo + step]
        differ = np.sign(ra[:, :, None] - ra[:, None, :]) != np.sign(rb[:, :, None] - rb[:, None, :])
        mismatches[lo : lo + step] = differ.sum(axis=(1, 2)) // 2  # each pair counted twice
    return np.divide(mismatches, pairs, out=np.zeros(len(a)), where=pairs > 0)


def trainable_users(data: Iterable[OrderedPartition]) -> list[OrderedPartition]:
    """The users ``train`` fits: those with at least 2 items, warning about
    the others.  Raises ``ValueError`` when none is left or they index
    different item catalogs, so a caller can check before writing anything."""
    data = list(data)
    usable = [X for X in data if sum(map(len, X.blocks)) >= 2]
    if len(usable) < len(data):
        warnings.warn(f"skipped {len(data) - len(usable)} degenerate users with fewer than 2 items")
    if not usable:
        raise ValueError("no trainable users")
    n_items = usable[0].n_objects
    if any(X.n_objects != n_items for X in usable):
        raise ValueError("all user partitions must index the same item catalog")
    return usable


def train(
    data: Sequence[OrderedPartition],
    cfg: TrainConfig,
    callback: Optional[Callable[[dict], None]] = None,
) -> CFParams:
    """Stochastic-gradient ascent with one persistent chain per user.

    Parameters are updated after every block of ``block_size`` users: each
    user's chain is advanced ``chain_steps_per_update`` alternating sweeps
    against the current parameter snapshot, then the block gradient (data
    statistics with exact posteriors minus chain statistics) is applied.
    The parameters are fixed within a block, so its unit weights are two
    block passes over all its users: the observed partitions' rows, whose
    posteriors come from one ``unit_posteriors`` pass, and the chain
    states' ``unit_weights``, whose row and entry each user's first sweep
    reads.  The per-user loop keeps what depends on ``rng``: the hidden
    draw, the effective worths of the drawn units and the moves (a later
    sweep of a user computes its new state's weights as a one-partition
    block).  The statistics are whole-block passes too: the new chain
    states are stacked by one ``stack_worth_features`` pass, which the rank
    rows and the gradient both read, and whose features the next sweeps
    reuse.
    ``callback``, when given, receives one record per block with the
    pairwise-disagreement diagnostic and a parameter snapshot.
    """
    rng = random.Random(cfg.seed)
    usable = trainable_users(data)
    n_items = usable[0].n_objects

    np_rng = np.random.default_rng(rng.randrange(2**63))
    params = CFParams.random_init(n_items, cfg.n_hidden, np_rng, cfg.init_scale)

    chains = list(usable)
    width = max(sum(map(len, X.blocks)) for X in usable)
    observed_ranks = _rank_rows(usable, width)

    n_users, K = len(usable), cfg.n_hidden
    block_counter = 0
    for epoch in range(cfg.epochs):
        order = list(range(n_users))
        rng.shuffle(order)
        for start in range(0, n_users, cfg.block_size):
            block = order[start : start + cfg.block_size]
            observed = [usable[ui] for ui in block]
            flat = unit_posteriors(params.unit_weights(observed)[0].ravel().tolist())
            posteriors = [flat[i * K : i * K + K] for i in range(len(block))]
            rows, gathered = params.unit_weights([chains[ui] for ui in block])
            states, hidden = [], []
            for ui, logom_c, gathered_c in zip(block, rows.tolist(), gathered):
                X_c = chains[ui]
                for step in range(cfg.chain_steps_per_update):
                    if step:  # a later sweep starts from the state the last one left
                        one, more = params.unit_weights([X_c])
                        logom_c, gathered_c = one[0].tolist(), more[0]
                    X_c, h_c = gibbs_mh_step(X_c, params, logom_c, gathered_c, rng)
                chains[ui] = X_c
                states.append(X_c)
                hidden.append(h_c)
            disagreement = 0.0
            features = stack_worth_features(states)  # also gives each new state its own
            chain_ranks = _rank_rows(states, width, features)
            for value in _disagreements(chain_ranks, observed_ranks[block]).tolist():
                disagreement += value  # summed in block order; the log prints its rounding
            grad = estimate_gradient(
                list(zip(observed, posteriors)), list(zip(states, hidden)), n_items, cfg.n_hidden,
                features,
            )
            if cfg.l2:
                grad.d_u -= cfg.l2 * params.u
                grad.d_W -= cfg.l2 * params.W
            params = CFParams(
                params.nu + cfg.learning_rate * grad.d_nu,
                params.u + cfg.learning_rate * grad.d_u,
                params.W + cfg.learning_rate * grad.d_W,
            )
            block_counter += 1
            if callback is not None:
                callback(
                    {
                        "epoch": epoch,
                        "block": block_counter,
                        "n_users": len(block),
                        "disagreement": disagreement / len(block),
                        "params": params.copy(),
                    }
                )
    return params


def save_checkpoint(path: str, p: CFParams) -> None:
    """Versioned text checkpoint; floats via repr, so round-trips are exact."""
    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"n_items {p.n_items}",
        f"K {p.n_hidden}",
        f"nu {p.nu!r}",
        "u " + " ".join(repr(v) for v in p.u.tolist()),
    ]
    for row in p.W.tolist():
        lines.append("W " + " ".join(repr(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> CFParams:
    """Read a ``save_checkpoint`` file; every error is a ``ValueError``
    naming ``path``."""
    with open(path) as fh:
        try:
            return _parse_checkpoint([(number, ln.split()) for number, ln in enumerate(fh, 1) if ln.strip()])
        except IndexError:
            raise ValueError(f"{path}: truncated checkpoint") from None
        except ValueError as exc:  # a bad number or key, non-UTF-8 bytes, parameters out of range
            raise ValueError(f"{path}: {exc}") from None


def _parse_checkpoint(rows: list[tuple[int, list[str]]]) -> CFParams:
    """The model in ``rows``, the line number and fields of each non-blank line."""
    head = rows[0][1] if rows else []
    if head[:1] != [CHECKPOINT_MAGIC]:
        raise ValueError("not an osmrank checkpoint")
    version = int(head[1])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    for (number, row), key in zip(rows[1:], ["n_items", "K", "nu", "u"] + ["W"] * len(rows)):
        if row[0] != key:
            raise ValueError(f"line {number} is {row[0]!r}, expected {key!r}")
    fields = [row for _, row in rows[1:]]
    if any(len(f) != 2 for f in fields[:3]):
        raise ValueError("malformed header line")
    n_items, n_hidden, nu = int(fields[0][1]), int(fields[1][1]), float(fields[2][1])
    u = np.array([float(v) for v in fields[3][1:]])
    w_rows = [[float(v) for v in f[1:]] for f in fields[4:]]
    if n_items < 1:
        raise ValueError(f"checkpoint has {n_items} items")
    if any(len(row) != n_hidden for row in w_rows):  # before numpy builds a ragged array
        raise ValueError("checkpoint shapes do not match header")
    W = np.array(w_rows) if w_rows else np.zeros((n_items, 0))
    if u.shape != (n_items,) or W.shape != (n_items, n_hidden):
        raise ValueError("checkpoint shapes do not match header")
    return CFParams(nu, u, W)
