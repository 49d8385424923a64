"""Ordered-set model with binary hidden units.

Each of the K hidden units gates a full extra set of pairwise potentials:
the joint weight is Omega(X) * prod_k Omega_k(X)^{h_k}.  Posteriors over
h factorize and are available in closed form, so inference alternates an
exact Gibbs draw of h | X with split-merge MH moves on X | h, which run on
the one pair model ``effective_pair_model(h, m)`` whose weight is the joint
weight.  The direct product, ``log_joint_weight``, is the tests' reference
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import PairPotentialModel, _unchecked_matrix_model, log_weight
from .sampler import advance_partition

__all__ = [
    "LatentModel",
    "hidden_posterior",
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


def hidden_posterior(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """P(h_k = 1 | X) = 1 / (1 + Omega_k(X)^-1), componentwise."""
    return np.array([sigmoid(lo) for lo in m.log_omegas(X).tolist()])


def effective_pair_model(h: np.ndarray, m: LatentModel) -> PairPotentialModel:
    """The pair model whose log_weight is the log joint weight
    log Omega(X) + sum_k h_k log Omega_k(X)."""
    active = [k for k, hk in enumerate(np.asarray(h).tolist()) if hk]
    return m.effective(active) if active else m.base


def sample_hidden(logom: np.ndarray, rng: random.Random, temperature: float = 1.0) -> np.ndarray:
    """Exact draw of h | X from the unit weights ``logom = m.log_omegas(X)``;
    at temperature tau the conditional is Bernoulli(sigmoid(tau * log Omega_k(X)))."""
    return np.array(
        [1 if rng.random() < sigmoid(temperature * lo) else 0 for lo in logom.tolist()], dtype=np.int8
    )


def gibbs_mh_step(
    X: OrderedPartition, m: LatentModel, rng: random.Random
) -> tuple[OrderedPartition, np.ndarray]:
    """One sweep of the alternating sampler: draw h | X exactly, then
    advance X | h with one split-merge move per object of X on the
    effective potentials.  Returns the new partition and the drawn h."""
    h = sample_hidden(m.log_omegas(X), rng)
    X = advance_partition(X, effective_pair_model(h, m), rng, sum(len(b) for b in X.blocks))
    return X, h

