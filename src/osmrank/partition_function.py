"""Normalization constants: exact log weights by enumeration and annealed importance sampling.

AIS interpolates from the uniform base (tau = 0, Z(0) = Fubini(N) * 2^K)
to the target (tau = 1) along an inverse-temperature ladder, accumulating
importance weights in the log domain across R independent runs, spread
over forked processes (``_fill_log_weights``).  Every routine takes a
``CFParams`` (with K = 0, a plain worth model) and reads it only through
``n_objects``, ``n_hidden``, ``log_weight``, ``log_omegas``, ``unit_weights``
and ``effective_at``, so the tests pass the generic ``LatentModel`` of
``tests/oracles.py`` the same way; tempering is ``effective_at``'s scale.
"""

from __future__ import annotations

import math
import mmap
import os
import random
import signal
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .combinatorics import (
    DEFAULT_ENUMERATION_CAP,
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
    sample_uniform_ordered_partition,
)
from .core import log_weight, logsumexp, stack_worth_features
from .latent import gibbs_mh_step
from .learning import CFParams

__all__ = [
    "AISConfig",
    "AISResult",
    "enumeration_log_weights",
    "annealed_unnorm_log_prob",
    "temperature_ladder",
    "ais_log_z",
]

LOG2 = math.log(2.0)
ENUMERATION_CHUNK = 1024  # states weighed per features pass in enumeration_log_weights


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
        if self.inner_steps is not None and self.inner_steps < 0:
            raise ValueError("inner_steps must be non-negative")
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


def enumeration_log_weights(m: CFParams, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """``annealed_unnorm_log_prob(X, 1.0, m)`` of every ordered partition X
    of m's objects, in the order of ``enumerate_ordered_partitions``: the
    exact log weights, whose logsumexp is log Z and whose softmax is the
    distribution of X.  The hidden units are summed out analytically via the
    prod_k (1 + Omega_k) identity, so only partitions are enumerated.

    The states are weighed ``ENUMERATION_CHUNK`` at a time: one
    ``stack_worth_features`` pass fills a chunk's worth features and one
    ``unit_weights`` call gives its hidden units' log weights.  Only the
    weights are kept, so memory does not grow with the enumeration.
    """
    states = enumerate_ordered_partitions(m.n_objects, cap)
    try:  # a count past memory fails here, before any state is weighed
        logs = np.empty(fubini(m.n_objects))
    except ValueError as exc:  # numpy refuses a size past the address space
        raise MemoryError(f"log weights of fubini({m.n_objects}) states: {exc}") from None
    for start in range(0, len(logs), ENUMERATION_CHUNK):
        chunk = list(islice(states, ENUMERATION_CHUNK))
        stack_worth_features(chunk)
        rows = m.unit_weights(chunk)[0].tolist()
        logs[start : start + len(chunk)] = [
            annealed_unnorm_log_prob(X, 1.0, m, row) for X, row in zip(chunk, rows)]
    return logs


def annealed_unnorm_log_prob(
    X: OrderedPartition, tau: float, m: CFParams, logom: Optional[Sequence[float]] = None
) -> float:
    """log P*(X | tau): tau * log Omega(X) plus the marginalized hidden
    terms sum_k log(1 + Omega_k(X)^tau).  ``logom``, X's row of
    ``m.unit_weights`` where the caller has it, is ``m.log_omegas(X)``."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    tau = float(tau)
    total = tau * log_weight(X, m)
    for lo in m.log_omegas(X).tolist() if logom is None else logom:
        total += _softplus(tau * lo)
    return total


def temperature_ladder(cfg: AISConfig) -> np.ndarray:
    """tau_0 = 0 < tau_1 < ... < tau_S = 1."""
    S = cfg.n_temperatures
    if S >= sys.maxsize // 8:  # numpy refuses such a size with a ValueError, before any allocation
        raise MemoryError(f"a ladder of {S} temperatures does not fit in memory")
    if cfg.schedule == "linear":
        return np.linspace(0.0, 1.0, S + 1)
    # geometric: log-spaced from a small floor up to 1, with tau_0 pinned at 0
    floor = 1e-4
    taus = np.concatenate([[0.0], np.geomspace(floor, 1.0, S)])
    return taus


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or 1 where the
    mask or ``os.fork`` is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _ais_run(m: CFParams, taus: list[float], steps: int, run_seed: int) -> float:
    """One AIS run's log weight: an exact uniform draw climbs the ladder."""
    run_rng = random.Random(run_seed)
    X = sample_uniform_ordered_partition(m.n_objects, run_rng)
    logw = 0.0
    for s in range(1, len(taus)):
        t_hi, t_lo = taus[s], taus[s - 1]
        if s > 1:
            X, _ = gibbs_mh_step(X, m, logom, gathered, run_rng, t_lo, steps)
        rows, more = m.unit_weights([X])  # the next transition reuses both
        logom, gathered = rows[0].tolist(), more[0]
        logw += (t_hi - t_lo) * log_weight(X, m)
        for lo in logom:
            logw += _softplus(t_hi * lo) - _softplus(t_lo * lo)
    return logw


def _fill_log_weights(
    m: CFParams, taus: list[float], steps: int, seed: int, log_weights: np.ndarray
) -> None:
    """``log_weights[r]`` = run r's log weight, for every r, over W processes.

    Run r's seed is the r-th ``randrange(2**63)`` of ``random.Random(seed)``;
    each worker replays that stream, so no list of R seeds is built.  Worker w
    of W = min(R, ``_cpu_count()``) takes runs w, w + W, ...; workers
    1..W-1 are forked children and worker 0 is this process.  The children
    write into ``log_weights``, a shared mapping, and report only their exit
    status.  Each weight lands at its run index, so the bytes do not depend
    on W.  The runs of a child that fails are run here again, with the same
    seeds, so they give the same weights or the serial run's error.
    """
    n_runs = len(log_weights)
    n_workers = min(n_runs, _cpu_count())

    def run_share(w: int) -> None:
        seed_src = random.Random(seed)
        for r in range(n_runs):
            run_seed = seed_src.randrange(2**63)
            if r % n_workers == w:
                log_weights[r] = _ais_run(m, taus, steps, run_seed)

    children = {}  # worker -> pid
    try:
        for w in range(1, n_workers):
            try:
                # numpy's OpenBLAS stops its thread pool before a fork, so the child has one thread
                pid = os.fork()
            except OSError:  # no more processes: this one runs the share below
                break
            if pid == 0:
                code = 1
                try:
                    run_share(w)
                    code = 0
                finally:
                    os._exit(code)  # skips the inherited stdio buffers and atexit hooks
            children[w] = pid
        for w in range(n_workers):
            if w not in children:
                run_share(w)
        for w, pid in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[w]
            if status != 0:
                run_share(w)
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def ais_log_z(m: CFParams, cfg: AISConfig) -> AISResult:
    """Annealed importance sampling estimate of log Z.

    Each of the R runs starts from an exact uniform draw and climbs the
    ladder.  The transition at tau = taus[s - 1] > 0 is a tempered hidden
    draw, then split-merge moves on the effective potentials scaled by tau;
    it leaves P(X | tau) invariant.  The estimate is log Z(0) +
    log-mean-exp of the run weights, and the effective sample size
    (sum w)^2 / sum w^2 is at most R.

    The runs are independent, each with its own seeded RNG, so they go to
    min(R, CPUs in the affinity mask) processes (``_fill_log_weights``),
    forked here and reaped before this returns.  The result does not depend
    on their number, and ``taskset -c 0`` keeps every run in this process.
    """
    n = m.n_objects
    steps = cfg.inner_steps if cfg.inner_steps is not None else n
    taus = temperature_ladder(cfg).tolist()
    # fills the fubini cache that the forked workers share
    log_z0 = math.log(fubini(n)) + m.n_hidden * LOG2
    try:  # shared with the forked workers; a size past memory fails here, before any fork
        log_weights = np.frombuffer(mmap.mmap(-1, 8 * cfg.n_runs))
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"log weights of {cfg.n_runs} AIS runs: {exc}") from None
    _fill_log_weights(m, taus, steps, cfg.seed, log_weights)

    log_sum = logsumexp(log_weights)
    log_z_estimate = log_z0 + log_sum - math.log(cfg.n_runs)
    log_ess = 2.0 * log_sum - logsumexp(2.0 * log_weights)
    # equal weights round a hair above R
    ess = min(float(np.exp(log_ess)), float(cfg.n_runs))
    return AISResult(float(log_z_estimate), log_weights, float(log_z0), ess)
