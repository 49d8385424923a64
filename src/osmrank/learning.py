"""Maximum-likelihood training for the collaborative-ranking parameterization.

Items carry log-worths: theta = e^nu, phi(x_i) = e^{u_i} and, per hidden
unit k, phi_k(x_i) = e^{W_ik}.  Ties get theta * sqrt(phi phi), orderings
the winner's worth.  Gradients are data statistics (with exact hidden
posteriors) minus model statistics estimated from short persistent
per-user chains; an enumeration oracle provides exact gradients and
likelihoods at small sizes.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .combinatorics import EnumerationCapError, OrderedPartition, enumerate_ordered_partitions, fubini
from .core import WorthPairModel, logsumexp, worth_features
from .latent import LatentModel, gibbs_mh_step, hidden_posterior

__all__ = [
    "CFParams",
    "GradientEstimate",
    "TrainConfig",
    "cf_latent_model",
    "sufficient_stats",
    "estimate_gradient",
    "exact_gradient",
    "exact_log_likelihood",
    "sample_partitions_exact",
    "pairwise_disagreement",
    "trainable_users",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = "osmrank-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class CFParams(LatentModel):
    """The collaborative-ranking latent model, held as its free parameters:
    scalar nu, per-item worths u and per-item-per-unit worths W.

    The base is ``WorthPairModel(nu, u)``: log phi(i~j) = nu + (u_i + u_j)/2,
    log psi(i>j) = u_i.  Hidden unit k is ``WorthPairModel(nu, W[:, k])``,
    sharing nu.  The worth family is closed under masking, so effective
    models stay in worth form, and unit weights come from one set of
    structural features.
    """

    nu: float
    u: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.nu = float(self.nu)
        self.u = np.asarray(self.u, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        if self.u.ndim != 1 or self.W.ndim != 2 or self.W.shape[0] != self.u.shape[0]:
            raise ValueError("u must be (n_items,), W must be (n_items, K)")
        if not (np.isfinite(self.nu) and np.isfinite(self.u).all() and np.isfinite(self.W).all()):
            raise ValueError("parameters must be finite")
        self.base = WorthPairModel(self.nu, self.u)
        self.n_objects = self.u.shape[0]

    @property
    def n_items(self) -> int:
        return self.u.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W.shape[1]

    @property
    def hidden(self) -> tuple[WorthPairModel, ...]:
        """Each unit as its own pair model, built on each access."""
        return tuple(WorthPairModel(self.nu, self.W[:, k]) for k in range(self.n_hidden))

    def log_omegas(self, X: OrderedPartition) -> np.ndarray:
        pairs, items, coef = worth_features(X)
        return self.nu * pairs + coef @ self.W[items]

    def effective(self, active: Sequence[int]) -> WorthPairModel:
        """``WorthPairModel(nu + nu |active|, u + sum_{k in active} W[:, k])``,
        summed only at the objects a sweep touches (see ``_EffectiveWorthModel``)."""
        extra = 0.0
        for _ in active:  # a left fold, as in WorthPairModel.log_weight
            extra += self.nu
        return _EffectiveWorthModel(self.nu + extra, self.u, self.W, active)

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


class _EffectiveWorthModel(WorthPairModel):
    """A worth model whose worths are ``u + (W[:, k1] + W[:, k2] + ...)``
    over the active units, in that grouping.

    ``worths_at(objects)`` sums them at ``objects`` alone, so a split-merge
    sweep over a user's objects costs O(|objects| * |active|) whatever the
    catalog size; the catalog-length ``worth`` is built on first read
    (``log_weight``, ``tables``, ``scaled``).  The parameters were checked
    by ``CFParams``.
    """

    def __init__(self, nu: float, u: np.ndarray, W: np.ndarray, active: Sequence[int]):
        self.nu, self._u, self._W, self._active = nu, u, W, tuple(active)
        self.n_objects = u.shape[0]

    @cached_property
    def worth(self) -> np.ndarray:
        return self._u + sum(self._W[:, k] for k in self._active)

    def worths_at(self, objects: np.ndarray) -> np.ndarray:
        W = self._W[objects]
        return self._u[objects] + sum(W[:, k] for k in self._active)


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
    entries: Iterable[tuple[OrderedPartition, np.ndarray]], n_items: int, n_hidden: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed partials of log joint weight w.r.t. (nu, u, W) over (X, h) pairs.

    One scatter-add each for u and W over the entries' concatenated items.
    An entry's items are distinct, so every coordinate receives its
    additions in entry order, as from a loop over the entries; d_nu is a
    left fold in entry order.
    """
    entries = list(entries)
    features = [worth_features(X) for X, _ in entries]
    H = np.array([h for _, h in entries], dtype=float).reshape(len(entries), n_hidden)
    d_nu = 0.0
    for (pairs, _, _), h_sum in zip(features, H.sum(axis=1).tolist()):
        d_nu += pairs * (1.0 + h_sum)
    d_u = np.zeros(n_items)
    d_W = np.zeros((n_items, n_hidden))
    if entries:
        items = np.concatenate([f[1] for f in features])
        coef = np.concatenate([f[2] for f in features])
        rows = np.repeat(np.arange(len(entries)), [len(f[1]) for f in features])
        np.add.at(d_u, items, coef)
        np.add.at(d_W, items, coef[:, None] * H[rows])
    return d_nu, d_u, d_W


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


def estimate_gradient(
    observed: Sequence[tuple[OrderedPartition, np.ndarray]],
    model_samples: Sequence[tuple[OrderedPartition, np.ndarray]],
    n_items: int,
    n_hidden: int,
) -> GradientEstimate:
    """Stochastic log-likelihood gradient: mean data statistics (hidden
    posteriors) minus mean model statistics (sampled hidden states)."""
    if not observed or not model_samples:
        raise ValueError("need at least one observed and one model sample")
    obs_nu, obs_u, obs_W = _accumulate(observed, n_items, n_hidden)
    mod_nu, mod_u, mod_W = _accumulate(model_samples, n_items, n_hidden)
    n_obs, n_mod = len(observed), len(model_samples)
    return GradientEstimate(
        obs_nu / n_obs - mod_nu / n_mod,
        obs_u / n_obs - mod_u / n_mod,
        obs_W / n_obs - mod_W / n_mod,
    )


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
    return _feature_rows(enumerate_ordered_partitions(n, cap=n), fubini(n), n)


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
        if X.n_objects != n_items or not X.covers_universe():
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
    for s, X in enumerate(enumerate_ordered_partitions(p.n_items, cap)):
        if s in wanted:
            for pos in wanted[s]:
                out[pos] = X
            remaining -= 1
            if remaining == 0:
                break
    return out  # type: ignore[return-value]


def pairwise_disagreement(sample: OrderedPartition, observed: OrderedPartition) -> float:
    """Portion of object pairs whose relation (tie / above / below) differs."""
    objects = sample.objects
    if objects != observed.objects:
        raise ValueError("partitions must cover the same objects")
    width = len(objects)
    return float(_disagreements(_rank_rows([sample], width), _rank_rows([observed], width))[0])


def _rank_rows(partitions: Sequence[OrderedPartition], width: int) -> np.ndarray:
    """One row per partition: the block rank of each of its objects, in
    ascending object order, padded with -1 to ``width`` columns.

    Ranks count blocks across all the partitions, so only comparisons
    within a row are meaningful.
    """
    block_items = [worth_features(X)[1] for X in partitions]  # objects in block order
    counts = [len(items) for items in block_items]
    sizes = [len(b) for X in partitions for b in X.blocks]
    items = np.concatenate(block_items)
    ranks = np.repeat(np.arange(len(sizes)), sizes)
    rows = np.repeat(np.arange(len(partitions)), counts)
    starts = np.cumsum(counts) - counts
    out = np.full((len(partitions), width), -1, dtype=np.int64)
    out[rows, np.arange(len(items)) - starts[rows]] = ranks[np.lexsort((items, rows))]
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

    n_users = len(usable)
    block_counter = 0
    for epoch in range(cfg.epochs):
        order = list(range(n_users))
        rng.shuffle(order)
        for start in range(0, n_users, cfg.block_size):
            block = order[start : start + cfg.block_size]
            observed = []
            samples = []
            for ui in block:
                X_obs = usable[ui]
                observed.append((X_obs, hidden_posterior(X_obs, params)))
                X_c = chains[ui]
                for _ in range(cfg.chain_steps_per_update):
                    X_c, h_c = gibbs_mh_step(X_c, params, rng)
                chains[ui] = X_c
                samples.append((X_c, h_c))
            disagreement = 0.0
            chain_ranks = _rank_rows([X for X, _ in samples], width)
            for value in _disagreements(chain_ranks, observed_ranks[block]).tolist():
                disagreement += value  # summed in block order; the log prints its rounding
            grad = estimate_gradient(observed, samples, n_items, cfg.n_hidden)
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
            return _parse_checkpoint([ln.rstrip("\n") for ln in fh if ln.strip()])
        except (IndexError, KeyError):
            raise ValueError(f"{path}: truncated checkpoint") from None
        except ValueError as exc:  # a bad number, non-UTF-8 bytes, non-finite parameters
            raise ValueError(f"{path}: {exc}") from None


def _parse_checkpoint(lines: list[str]) -> CFParams:
    head = lines[0].split() if lines else []
    if head[:1] != [CHECKPOINT_MAGIC]:
        raise ValueError("not an osmrank checkpoint")
    version = int(head[1])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    fields = [ln.split() for ln in lines[1:3]]
    if any(len(f) != 2 for f in fields):
        raise ValueError("malformed header line")
    header = {key: int(value) for key, value in fields}
    n_items, n_hidden = header["n_items"], header["K"]
    nu = float(lines[3].split(maxsplit=1)[1])
    u = np.array([float(v) for v in lines[4].split()[1:]])
    w_rows = [[float(v) for v in ln.split()[1:]] for ln in lines[5:]]
    if n_items < 1:
        raise ValueError(f"checkpoint has {n_items} items")
    W = np.array(w_rows) if w_rows else np.zeros((n_items, 0))
    if u.shape != (n_items,) or W.shape != (n_items, n_hidden):
        raise ValueError("checkpoint shapes do not match header")
    return CFParams(nu, u, W)
