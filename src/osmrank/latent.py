"""Ordered-set model with binary hidden units.

Each of the K hidden units gates a full extra set of pairwise potentials:
the joint weight is Omega(X) * prod_k Omega_k(X)^{h_k}.  Posteriors over
h factorize and are available in closed form, so inference alternates an
exact Gibbs draw of h | X with split-merge MH moves on X | h, which run on
the one pair model whose weight is the joint weight,
``effective_pair_model(h, m)``; a sweep takes it at the chain's objects
only, ``m.effective_at``.  The direct product, ``log_joint_weight``, is the
tests' reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import PairPotentialModel, _unchecked_matrix_model, log_weight
from .sampler import advance_partition

__all__ = [
    "LatentModel",
    "hidden_posterior",
    "effective_pair_model",
    "gibbs_mh_step",
    "draw_hidden",
    "sample_hidden",
    "unit_posteriors",
]


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
        return self.unit_weights([X])[0][0]

    def effective(self, active: Sequence[int]) -> PairPotentialModel:
        """The base potentials plus those of the hidden units indexed by ``active``."""
        tie, order = (table.copy() for table in self.base.tables())
        for k in active:
            ht, ho = self.hidden[k].tables()
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
        return m if scale == 1.0 else m.scaled(scale)


def unit_posteriors(logom: Sequence[float], temperature: float = 1.0) -> list[float]:
    """sigmoid(temperature * lo) for each unit weight lo, in unit order."""
    out = []
    for lo in logom:
        x = temperature * lo
        if x >= 0.0:
            out.append(1.0 / (1.0 + math.exp(-x)))
        else:
            e = math.exp(x)
            out.append(e / (1.0 + e))
    return out


def hidden_posterior(X: OrderedPartition, m: LatentModel) -> np.ndarray:
    """P(h_k = 1 | X) = 1 / (1 + Omega_k(X)^-1), componentwise."""
    return np.array(unit_posteriors(m.log_omegas(X).tolist()))


def effective_pair_model(h: np.ndarray, m: LatentModel) -> PairPotentialModel:
    """The pair model whose log_weight is the log joint weight
    log Omega(X) + sum_k h_k log Omega_k(X)."""
    active = [k for k, hk in enumerate(np.asarray(h).tolist()) if hk]
    return m.effective(active) if active else m.base


def draw_hidden(
    logom: Sequence[float], rng: random.Random, temperature: float = 1.0
) -> tuple[list[int], list[int]]:
    """Exact draw of h | X from the unit weights ``logom`` (log Omega_k(X) for
    each unit), one ``rng.random()`` per unit in unit order: at temperature tau
    h_k ~ Bernoulli(sigmoid(tau * log Omega_k(X))).  Returns h and the indices
    of its active units."""
    uniform = rng.random
    h, active = [], []
    for k, p in enumerate(unit_posteriors(logom, temperature)):
        if uniform() < p:
            h.append(1)
            active.append(k)
        else:
            h.append(0)
    return h, active


def sample_hidden(logom: np.ndarray, rng: random.Random, temperature: float = 1.0) -> np.ndarray:
    """``draw_hidden``'s h as an int8 array."""
    return np.array(draw_hidden(logom.tolist(), rng, temperature)[0], dtype=np.int8)


def gibbs_mh_step(
    X: OrderedPartition,
    m: LatentModel,
    logom: Sequence[float],
    gathered,
    rng: random.Random,
    temperature: float = 1.0,
    steps: Optional[int] = None,
) -> tuple[OrderedPartition, list[int]]:
    """One sweep of the alternating sampler at inverse temperature tau: draw
    h | X exactly, then advance X | h with ``steps`` split-merge moves (one
    per object of X by default) on the effective potentials times tau.
    ``logom`` and ``gathered`` are X's row and entry of ``m.unit_weights``,
    so a caller computes them for many partitions at once.  Returns the new
    partition and the drawn h."""
    h, active = draw_hidden(logom, rng, temperature)
    if steps is None:
        steps = sum(map(len, X.blocks))
    return advance_partition(X, m.effective_at(gathered, active, temperature), rng, steps), h
