"""Ordered-set model with binary hidden units.

Each of the K hidden units gates a full extra set of pairwise potentials:
the joint weight is Omega(X) * prod_k Omega_k(X)^{h_k}.  Posteriors over
h factorize and are available in closed form, so inference alternates an
exact Gibbs draw of h | X with split-merge MH moves on X | h.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import PairPotentialModel, WorthPairModel, _unchecked_matrix_model, log_weight, worth_features
from .sampler import advance_partition

__all__ = [
    "LatentModel",
    "WorthLatentModel",
    "hidden_posterior",
    "log_joint_weight",
    "effective_pair_model",
    "gibbs_mh_step",
    "sigmoid",
]


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class LatentModel:
    """A base pair-potential model plus one pair-potential model per hidden unit.

    A plain pair model is the latent model with no hidden units.  This class
    works with any pair-model family: unit weights are pair sums and
    effective models are potential tables.  ``WorthLatentModel`` replaces
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

    def log_omegas(self, X: OrderedPartition) -> np.ndarray:
        """Vector of log Omega_k(X) over all hidden units."""
        return np.array([log_weight(X, hm) for hm in self.hidden], dtype=float)

    def effective(self, active: Sequence[int]) -> PairPotentialModel:
        """The base potentials plus those of the hidden units indexed by ``active``."""
        tie, order = (table.copy() for table in self.base.tables())
        for k in active:
            ht, ho = self.hidden[k].tables()
            tie += ht
            order += ho
        return _unchecked_matrix_model(tie, order)


class WorthLatentModel(LatentModel):
    """The collaborative-ranking latent model, held as its parameters.

    The base is ``WorthPairModel(nu, u)`` and hidden unit k is
    ``WorthPairModel(nu, W[:, k])``, sharing nu.  The worth family is closed
    under masking, so effective models stay in worth form, and unit weights
    come from one set of structural features.
    """

    def __init__(self, nu: float, u: np.ndarray, W: np.ndarray):
        self.base = WorthPairModel(nu, u)
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != self.base.n_objects or not np.isfinite(W).all():
            raise ValueError("W must be a finite (n_objects, K) matrix")
        self.nu, self.u, self.W = self.base.nu, self.base.worth, W
        self.n_objects = self.base.n_objects

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
        return _EffectiveWorthModel(self.nu + sum(self.nu for _ in active), self.u, self.W, active)


class _EffectiveWorthModel(WorthPairModel):
    """A worth model whose worths are ``u + (W[:, k1] + W[:, k2] + ...)``
    over the active units, in that grouping.

    ``worths_at(objects)`` sums them at ``objects`` alone, so a split-merge
    sweep over a user's objects costs O(|objects| * |active|) whatever the
    catalog size; the catalog-length ``worth`` is built on first read
    (``log_weight``, ``tables``, ``scaled``).  The parameters were checked
    by ``WorthLatentModel``.
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


def hidden_posterior(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """P(h_k = 1 | X) = 1 / (1 + Omega_k(X)^-1), componentwise."""
    return np.array([sigmoid(lo) for lo in m.log_omegas(X).tolist()])


def log_joint_weight(X: OrderedPartition, h: np.ndarray, m: LatentModel) -> float:
    """log of Omega(X) * prod_k Omega_k(X)^{h_k}."""
    h = np.asarray(h)
    if h.shape != (m.n_hidden,):
        raise ValueError(f"hidden state must have shape ({m.n_hidden},)")
    total = log_weight(X, m.base)
    for hk, hm in zip(h, m.hidden):
        if hk:
            total += log_weight(X, hm)
    return total


def effective_pair_model(h: np.ndarray, m: LatentModel) -> PairPotentialModel:
    """The pair model whose log_weight equals log_joint_weight(., h, m)."""
    active = [k for k, hk in enumerate(np.asarray(h).tolist()) if hk]
    return m.effective(active) if active else m.base


def sample_hidden(logom: np.ndarray, rng: random.Random, temperature: float = 1.0) -> np.ndarray:
    """Exact draw of h | X from the unit weights ``logom = m.log_omegas(X)``;
    at temperature tau the conditional is Bernoulli(sigmoid(tau * log Omega_k(X)))."""
    temperature = float(temperature)  # AIS passes a rung of its numpy ladder
    return np.array(
        [1 if rng.random() < sigmoid(temperature * lo) else 0 for lo in logom.tolist()], dtype=np.int8
    )


def gibbs_mh_step(
    X: OrderedPartition,
    m: LatentModel,
    rng: random.Random,
    inner_steps: Optional[int] = None,
) -> tuple[OrderedPartition, np.ndarray]:
    """One sweep of the alternating sampler: draw h | X exactly, then
    advance X | h with split-merge moves on the effective potentials.
    Returns the new partition and the drawn h.

    inner_steps defaults to the object count (one expected touch per object).
    """
    h = sample_hidden(m.log_omegas(X), rng)
    eff = effective_pair_model(h, m)
    if inner_steps is None:
        inner_steps = sum(len(b) for b in X.blocks)
    X = advance_partition(X, eff, rng, inner_steps)
    return X, h

