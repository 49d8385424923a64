"""Normalization constants: exact enumeration oracle and annealed importance sampling.

AIS interpolates from the uniform base (tau = 0, Z(0) = Fubini(N), times
2^K with hidden units) to the target (tau = 1) along an inverse-temperature
ladder, accumulating importance weights in the log domain across R
independent runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import logsumexp

from .combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
    sample_uniform_ordered_partition,
)
from .core import PairPotentialModel, log_weight
from .latent import LatentModel, latent_log_omegas, sample_hidden, effective_pair_model
from .sampler import advance_partition

__all__ = [
    "AISConfig",
    "AISResult",
    "exact_log_z",
    "exact_distribution",
    "annealed_unnorm_log_prob",
    "temperature_ladder",
    "ais_log_z",
]

LOG2 = math.log(2.0)

AnyModel = Union[PairPotentialModel, LatentModel]


@dataclass
class AISConfig:
    n_temperatures: int
    n_runs: int
    schedule: str = "linear"
    inner_steps: Optional[int] = None  # MH proposals per temperature; default n_objects
    seed: int = 0

    def __post_init__(self):
        if self.n_temperatures < 2:
            raise ValueError("need at least 2 temperatures")
        if self.n_runs < 1:
            raise ValueError("need at least 1 run")
        if self.schedule not in ("linear", "geometric"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class AISResult:
    log_z_estimate: float
    log_weights: np.ndarray
    log_z0: float
    effective_sample_size: float


def _softplus(x: float) -> float:
    # log(1 + e^x) without overflow
    if x > 36.0:
        return x
    return math.log1p(math.exp(x))


def _marginal_log_weight(X: OrderedPartition, m: LatentModel) -> float:
    """log sum_h joint weight = log Omega(X) + sum_k log(1 + Omega_k(X))."""
    total = log_weight(X, m.base)
    for lo in latent_log_omegas(X, m):
        total += _softplus(lo)
    return total


def exact_log_z(m: AnyModel, cap: int = 8) -> float:
    """log Z by full enumeration (oracle).

    For latent models the hidden units are summed out analytically via the
    prod_k (1 + Omega_k) identity, so only partitions are enumerated.
    """
    n = m.n_objects
    if n > cap:
        raise EnumerationCapError(
            f"exact_log_z over n={n} objects refused: fubini({n}) = {fubini(n)} exceeds cap {cap}"
        )
    if isinstance(m, LatentModel):
        logs = [_marginal_log_weight(X, m) for X in enumerate_ordered_partitions(n, cap)]
    else:
        logs = [log_weight(X, m) for X in enumerate_ordered_partitions(n, cap)]
    return float(logsumexp(logs))


def exact_distribution(
    m: AnyModel, cap: int = 8
) -> tuple[list[OrderedPartition], np.ndarray]:
    """All states with their exact probabilities (latent: X-marginal)."""
    n = m.n_objects
    states = list(enumerate_ordered_partitions(n, cap))
    if isinstance(m, LatentModel):
        logs = np.array([_marginal_log_weight(X, m) for X in states])
    else:
        logs = np.array([log_weight(X, m) for X in states])
    probs = np.exp(logs - logsumexp(logs))
    probs /= probs.sum()
    return states, probs


def annealed_unnorm_log_prob(X: OrderedPartition, tau: float, m: AnyModel) -> float:
    """log P*(X | tau): tau * log Omega(X), plus, for latent models, the
    marginalized hidden terms sum_k log(1 + Omega_k(X)^tau)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if isinstance(m, LatentModel):
        total = tau * log_weight(X, m.base)
        for lo in latent_log_omegas(X, m):
            total += _softplus(tau * lo)
        return total
    return tau * log_weight(X, m)


def temperature_ladder(cfg: AISConfig) -> np.ndarray:
    """tau_0 = 0 < tau_1 < ... < tau_S = 1."""
    S = cfg.n_temperatures
    if cfg.schedule == "linear":
        return np.linspace(0.0, 1.0, S + 1)
    # geometric: log-spaced from a small floor up to 1, with tau_0 pinned at 0
    floor = 1e-4
    taus = np.concatenate([[0.0], np.geomspace(floor, 1.0, S)])
    return taus


def _transition(
    X: OrderedPartition, tau: float, m: AnyModel, rng: random.Random, steps: int
) -> OrderedPartition:
    """One block of MH moves leaving P(X | tau) invariant."""
    if tau == 0.0:
        # uniform-target kernel; cheapest exact option is an independent draw
        return sample_uniform_ordered_partition(X.n_objects, rng)
    if isinstance(m, LatentModel):
        h = sample_hidden(X, m, rng, temperature=tau)
        eff = effective_pair_model(h, m).scaled(tau)
        return advance_partition(X, eff, rng, steps)
    return advance_partition(X, m.scaled(tau), rng, steps)


def ais_log_z(m: AnyModel, cfg: AISConfig, rng: Optional[random.Random] = None) -> AISResult:
    """Annealed importance sampling estimate of log Z.

    Each of the R runs starts from an exact uniform draw and climbs the
    ladder, advancing with the split-merge kernel (latent models alternate
    a tempered hidden draw with moves on the effective potentials).  The
    estimate is log Z(0) + log-mean-exp of the run weights.
    """
    seed_src = rng if rng is not None else random.Random(cfg.seed)
    run_seeds = [seed_src.randrange(2**63) for _ in range(cfg.n_runs)]
    n = m.n_objects
    steps = cfg.inner_steps if cfg.inner_steps is not None else n
    taus = temperature_ladder(cfg)
    S = cfg.n_temperatures

    if isinstance(m, LatentModel):
        log_z0 = math.log(fubini(n)) + m.n_hidden * LOG2
    else:
        log_z0 = math.log(fubini(n))

    latent = isinstance(m, LatentModel)
    log_weights = np.empty(cfg.n_runs)
    for r, run_seed in enumerate(run_seeds):
        run_rng = random.Random(run_seed)
        X = sample_uniform_ordered_partition(n, run_rng)
        logw = 0.0
        for s in range(1, S + 1):
            t_hi, t_lo = taus[s], taus[s - 1]
            if s > 1:
                X = _transition(X, t_lo, m, run_rng, steps)
            if latent:
                logw += (t_hi - t_lo) * log_weight(X, m.base)
                for lo in latent_log_omegas(X, m):
                    logw += _softplus(t_hi * lo) - _softplus(t_lo * lo)
            else:
                logw += (t_hi - t_lo) * log_weight(X, m)
        log_weights[r] = logw

    log_sum = logsumexp(log_weights)
    log_z_estimate = log_z0 + log_sum - math.log(cfg.n_runs)
    ess = float(np.exp(2.0 * log_sum - logsumexp(2.0 * log_weights)))
    return AISResult(float(log_z_estimate), log_weights, float(log_z0), ess)
