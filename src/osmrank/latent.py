"""Ordered-set model with binary hidden units.

Each of the K hidden units gates a full extra set of pairwise potentials:
the joint weight is Omega(X) * prod_k Omega_k(X)^{h_k}.  Posteriors over
h factorize and are available in closed form, ``unit_posteriors``, the one
sigmoid of the program (train, AIS, ``sample --model`` and eval), so
inference alternates an exact Gibbs draw of h | X with split-merge MH moves
on X | h, which run on the model with no hidden units whose weight is the
joint weight, ``effective_pair_model(h, m)``; a sweep takes it at the
chain's objects only, ``m.effective_at``, a ``LocalWorths`` whose
closed-form ratio the kernel calls once per proposal.  The tests' reference
is the direct product, ``log_joint_weight`` in ``tests/oracles.py``.

The model ``m`` is ``learning.CFParams``, read only through ``log_omegas``,
``effective``, ``unit_weights`` and ``effective_at`` (never
per unit: that is the tests' ``unit_models``), so the functions here also
take the generic ``LatentModel`` of ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np

from .combinatorics import OrderedPartition
from .core import _libm
from .sampler import advance_partition

__all__ = [
    "hidden_posterior",
    "effective_pair_model",
    "gibbs_mh_step",
    "draw_hidden",
    "sample_hidden",
    "unit_posteriors",
]


def unit_posteriors(logom, temperature: float = 1.0) -> np.ndarray:
    """sigmoid(temperature * lo) for each unit weight lo of an array of any
    shape, as an array of that shape: with e = exp(-|x|) from libm, 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere, the two-branch scalar form to the bit."""
    x = temperature * np.asarray(logom, dtype=float)
    e = _libm(math.exp, -np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def hidden_posterior(X: OrderedPartition, m) -> np.ndarray:
    """P(h_k = 1 | X) = 1 / (1 + Omega_k(X)^-1), componentwise."""
    return unit_posteriors(m.log_omegas(X))


def effective_pair_model(h: np.ndarray, m):
    """The model with no hidden units whose log_weight is the log joint
    weight log Omega(X) + sum_k h_k log Omega_k(X)."""
    return m.effective([k for k, hk in enumerate(np.asarray(h).tolist()) if hk])


def draw_hidden(posteriors: Sequence[float], rng: random.Random) -> tuple[list[int], list[int]]:
    """Exact draw of h | X from X's row of ``unit_posteriors``, one
    ``rng.random()`` per unit in unit order: h_k ~ Bernoulli(posteriors[k]).
    Returns h and the indices of its active units."""
    uniform = rng.random
    h, active = [], []
    for k, p in enumerate(posteriors):
        if uniform() < p:
            h.append(1)
            active.append(k)
        else:
            h.append(0)
    return h, active


def sample_hidden(logom: np.ndarray, rng: random.Random, temperature: float = 1.0) -> np.ndarray:
    """``draw_hidden``'s h at inverse temperature tau from the unit weights
    ``logom``, as an int8 array."""
    return np.array(draw_hidden(unit_posteriors(logom, temperature).tolist(), rng)[0], dtype=np.int8)


def gibbs_mh_step(
    X: OrderedPartition,
    m,
    posteriors: Sequence[float],
    gathered,
    rng: random.Random,
    temperature: float = 1.0,
    steps: Optional[int] = None,
) -> tuple[OrderedPartition, list[int]]:
    """One sweep of the alternating sampler at inverse temperature tau: draw
    h | X exactly, then advance X | h with ``steps`` split-merge moves (one
    per object of X by default) on the effective potentials times tau.
    ``posteriors`` is ``unit_posteriors`` of X's row of ``m.unit_weights`` at
    tau, as a list, and ``gathered`` X's entry there, so a caller computes
    them for many partitions at once.  Returns the new partition and the
    drawn h."""
    h, active = draw_hidden(posteriors, rng)
    if steps is None:
        steps = sum(map(len, X.blocks))
    return advance_partition(X, m.effective_at(gathered, active, temperature), rng, steps), h
