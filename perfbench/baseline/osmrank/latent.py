"""Ordered-set model with binary hidden units.

Each of the K hidden units gates a full extra set of pairwise potentials:
the joint weight is Omega(X) * prod_k Omega_k(X)^{h_k}.  Posteriors over
h factorize and are available in closed form, so inference alternates an
exact Gibbs draw of h | X with split-merge MH moves on X | h.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import (
    MatrixPairModel,
    PairPotentialModel,
    WorthPairModel,
    _unchecked_matrix_model,
    log_weight,
    worth_features,
)
from .sampler import advance_partition

__all__ = [
    "LatentModel",
    "log_omega_k",
    "latent_log_omegas",
    "hidden_posterior",
    "log_joint_weight",
    "effective_pair_model",
    "gibbs_mh_step",
    "latent_representation",
    "sigmoid",
]


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class LatentModel:
    """A base pair-potential model plus one pair-potential model per hidden unit."""

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


def log_omega_k(X: OrderedPartition, m: LatentModel, k: int) -> float:
    """log Omega_k(X): the k-th hidden unit's weight, same pair-sum as the base."""
    return log_weight(X, m.hidden[k])


def latent_log_omegas(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """Vector of log Omega_k(X) over all hidden units."""
    if m.n_hidden == 0:
        return np.zeros(0)
    if all(isinstance(hm, WorthPairModel) for hm in m.hidden):
        pairs, coef = worth_features(X)
        items = np.fromiter(coef.keys(), dtype=int, count=len(coef))
        c = np.fromiter(coef.values(), dtype=float, count=len(coef))
        nus = np.array([hm.nu for hm in m.hidden])
        worths = np.stack([hm.worth[items] for hm in m.hidden], axis=1)
        return nus * pairs + c @ worths
    return np.array([log_weight(X, hm) for hm in m.hidden])


def hidden_posterior(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """P(h_k = 1 | X) = 1 / (1 + Omega_k(X)^-1), componentwise."""
    return np.array([sigmoid(lo) for lo in latent_log_omegas(X, m)])


def log_joint_weight(X: OrderedPartition, h: np.ndarray, m: LatentModel) -> float:
    """log of Omega(X) * prod_k Omega_k(X)^{h_k}."""
    h = np.asarray(h)
    if h.shape != (m.n_hidden,):
        raise ValueError(f"hidden state must have shape ({m.n_hidden},)")
    total = log_weight(X, m.base)
    for k in range(m.n_hidden):
        if h[k]:
            total += log_weight(X, m.hidden[k])
    return total


def _materialize(m: PairPotentialModel) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(m, MatrixPairModel):
        return m.tie, m.order
    if isinstance(m, WorthPairModel):
        half = 0.5 * m.worth
        tie = m.nu + half[:, None] + half[None, :]
        order = np.broadcast_to(m.worth[:, None], (m.n_objects, m.n_objects)).copy()
        return tie, order
    n = m.n_objects
    tie = np.zeros((n, n))
    order = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                tie[i, j] = m.log_tie(i, j)
                order[i, j] = m.log_order(i, j)
    return tie, order


def effective_pair_model(h: np.ndarray, m: LatentModel) -> PairPotentialModel:
    """The pair model whose log_weight equals log_joint_weight(., h, m).

    Worth-parameterized models stay in worth form (the family is closed
    under masking); anything else is combined into potential tables.
    """
    h = np.asarray(h)
    active = [m.hidden[k] for k in range(m.n_hidden) if h[k]]
    if not active:
        return m.base
    if isinstance(m.base, WorthPairModel) and all(isinstance(hm, WorthPairModel) for hm in active):
        nu = m.base.nu + sum(hm.nu for hm in active)
        worth = m.base.worth + sum(hm.worth for hm in active)
        return WorthPairModel(nu, worth)
    tie, order = _materialize(m.base)
    tie, order = tie.copy(), order.copy()
    for hm in active:
        ht, ho = _materialize(hm)
        tie += ht
        order += ho
    return _unchecked_matrix_model(tie, order)


def sample_hidden(
    X: OrderedPartition, m: LatentModel, rng: random.Random, temperature: float = 1.0
) -> np.ndarray:
    """Exact draw of h | X; at temperature tau the conditional is
    Bernoulli(sigmoid(tau * log Omega_k(X)))."""
    logom = latent_log_omegas(X, m)
    return np.array(
        [1 if rng.random() < sigmoid(temperature * lo) else 0 for lo in logom], dtype=np.int8
    )


def gibbs_mh_step(
    X: OrderedPartition,
    h: np.ndarray,
    m: LatentModel,
    rng: random.Random,
    inner_steps: Optional[int] = None,
) -> tuple[OrderedPartition, np.ndarray]:
    """One sweep of the alternating sampler: resample h | X exactly, then
    advance X | h with split-merge moves on the effective potentials.

    inner_steps defaults to the object count (one expected touch per object).
    The incoming h is not read: its conditional given X is exact.
    """
    h = sample_hidden(X, m, rng)
    eff = effective_pair_model(h, m)
    if inner_steps is None:
        inner_steps = sum(len(b) for b in X.blocks)
    X = advance_partition(X, eff, rng, inner_steps)
    return X, h


def latent_representation(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """The posterior activation vector (P(h_1=1|X), ..., P(h_K=1|X))."""
    return hidden_posterior(X, m)
