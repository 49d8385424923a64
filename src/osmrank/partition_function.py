"""Normalization constants: exact enumeration oracle and annealed importance sampling.

AIS interpolates from the uniform base (tau = 0, Z(0) = Fubini(N) * 2^K)
to the target (tau = 1) along an inverse-temperature ladder, accumulating
importance weights in the log domain across R independent runs.  The runs
are spread over min(R, CPUs in the process's affinity mask) processes; the
weights do not depend on that number, and ``taskset -c 0`` keeps every run
in one process.  Every routine works on a ``LatentModel``; a plain pair
model is taken as the latent model with no hidden units (K = 0).
"""

from __future__ import annotations

import math
import os
import random
import signal
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    fubini,
    sample_uniform_ordered_partition,
)
from .core import PairPotentialModel, log_weight, logsumexp
from .latent import LatentModel, effective_pair_model, sample_hidden
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


def _as_latent(m: PairPotentialModel | LatentModel) -> LatentModel:
    """The one model shape used below: a pair model becomes K = 0 latent."""
    return m if isinstance(m, LatentModel) else LatentModel(m, ())


def exact_log_z(m: PairPotentialModel | LatentModel, cap: int = 8) -> float:
    """log Z by full enumeration (oracle).

    The hidden units are summed out analytically via the prod_k (1 + Omega_k)
    identity (the tau = 1 case of ``annealed_unnorm_log_prob``), so only
    partitions are enumerated.
    """
    m = _as_latent(m)
    n = m.n_objects
    if n > cap:
        raise EnumerationCapError(
            f"exact_log_z over n={n} objects refused: fubini({n}) = {fubini(n)} exceeds cap {cap}"
        )
    logs = [annealed_unnorm_log_prob(X, 1.0, m) for X in enumerate_ordered_partitions(n, cap)]
    return float(logsumexp(logs))


def exact_distribution(
    m: PairPotentialModel | LatentModel, cap: int = 8
) -> tuple[list[OrderedPartition], np.ndarray]:
    """All states with their exact probabilities (latent: X-marginal)."""
    m = _as_latent(m)
    states = list(enumerate_ordered_partitions(m.n_objects, cap))
    logs = np.array([annealed_unnorm_log_prob(X, 1.0, m) for X in states])
    probs = np.exp(logs - logsumexp(logs))
    probs /= probs.sum()
    return states, probs


def annealed_unnorm_log_prob(
    X: OrderedPartition, tau: float, m: PairPotentialModel | LatentModel
) -> float:
    """log P*(X | tau): tau * log Omega(X) plus the marginalized hidden
    terms sum_k log(1 + Omega_k(X)^tau)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    m = _as_latent(m)
    tau = float(tau)
    total = tau * log_weight(X, m.base)
    for lo in m.log_omegas(X).tolist():
        total += _softplus(tau * lo)
    return total


def temperature_ladder(cfg: AISConfig) -> np.ndarray:
    """tau_0 = 0 < tau_1 < ... < tau_S = 1."""
    S = cfg.n_temperatures
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


def _ais_run(m: LatentModel, taus: list[float], steps: int, run_seed: int) -> float:
    """One AIS run's log weight: an exact uniform draw climbs the ladder."""
    run_rng = random.Random(run_seed)
    X = sample_uniform_ordered_partition(m.n_objects, run_rng)
    logw = 0.0
    for s in range(1, len(taus)):
        t_hi, t_lo = taus[s], taus[s - 1]
        if s > 1:
            h = sample_hidden(logom, run_rng, temperature=t_lo)
            X = advance_partition(X, effective_pair_model(h, m).scaled(t_lo), run_rng, steps)
        logom = m.log_omegas(X)  # the next transition's hidden draw reuses it
        logw += (t_hi - t_lo) * log_weight(X, m.base)
        for lo in logom.tolist():
            logw += _softplus(t_hi * lo) - _softplus(t_lo * lo)
    return logw


def _send_runs(m: LatentModel, taus: list[float], steps: int, run_seeds: list[int], fd: int) -> None:
    """A forked worker's share: the log weights of ``run_seeds``, written to
    the pipe ``fd`` as packed doubles."""
    weights = [_ais_run(m, taus, steps, run_seed) for run_seed in run_seeds]
    with open(fd, "wb") as pipe:
        pipe.write(struct.pack(f"{len(weights)}d", *weights))


def _fill_log_weights(
    m: LatentModel, taus: list[float], steps: int, run_seeds: list[int], log_weights: np.ndarray
) -> None:
    """``log_weights[r]`` = run r's log weight, for every r, over W processes.

    Worker w of W = min(R, ``_cpu_count()``) takes runs w, w + W, ...;
    workers 1..W-1 are forked children and worker 0 is this process.  Each
    weight lands at its run index, so the bytes do not depend on W.  The
    runs of a child that fails or sends short data are run here again, with
    the same seeds, so they give the same weights or the serial run's error.
    """
    n_runs = len(run_seeds)
    n_workers = min(n_runs, _cpu_count())

    def run_share(w: int) -> None:
        for r in range(w, n_runs, n_workers):
            log_weights[r] = _ais_run(m, taus, steps, run_seeds[r])

    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, n_workers):
            read_fd, write_fd = os.pipe()
            try:
                # numpy's OpenBLAS stops its thread pool before a fork, so the child has one thread
                pid = os.fork()
            except OSError:  # no more processes: this one runs the share below
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    _send_runs(m, taus, steps, run_seeds[w::n_workers], write_fd)
                    code = 0
                finally:
                    os._exit(code)  # skips the inherited stdio buffers and atexit hooks
            os.close(write_fd)
            children[w] = (pid, open(read_fd, "rb"))
        for w in range(n_workers):
            if w not in children:
                run_share(w)
        for w, (pid, pipe) in list(children.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[w]
            if status == 0 and len(data) == 8 * len(range(w, n_runs, n_workers)):
                log_weights[w::n_workers] = struct.unpack(f"{len(data) // 8}d", data)
            else:
                run_share(w)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def ais_log_z(m: PairPotentialModel | LatentModel, cfg: AISConfig) -> AISResult:
    """Annealed importance sampling estimate of log Z.

    Each of the R runs starts from an exact uniform draw and climbs the
    ladder.  The transition at tau = taus[s - 1] > 0 is a tempered hidden
    draw, then split-merge moves on the effective potentials scaled by tau;
    it leaves P(X | tau) invariant.  The estimate is log Z(0) +
    log-mean-exp of the run weights.

    The runs are independent, each with its own seeded RNG, so they are
    spread over min(R, CPUs in the affinity mask) processes, forked here
    and reaped before this returns.  The result does not depend on that
    number, and ``taskset -c 0`` keeps every run in this process.
    """
    m = _as_latent(m)
    n = m.n_objects
    steps = cfg.inner_steps if cfg.inner_steps is not None else n
    taus = temperature_ladder(cfg).tolist()
    # fills the fubini cache that the forked workers share
    log_z0 = math.log(fubini(n)) + m.n_hidden * LOG2
    log_weights = np.empty(cfg.n_runs)  # a size past memory fails here, before R seeds are drawn
    seed_src = random.Random(cfg.seed)
    run_seeds = [seed_src.randrange(2**63) for _ in range(cfg.n_runs)]
    _fill_log_weights(m, taus, steps, run_seeds, log_weights)

    log_sum = logsumexp(log_weights)
    log_z_estimate = log_z0 + log_sum - math.log(cfg.n_runs)
    ess = float(np.exp(2.0 * log_sum - logsumexp(2.0 * log_weights)))
    return AISResult(float(log_z_estimate), log_weights, float(log_z0), ess)
