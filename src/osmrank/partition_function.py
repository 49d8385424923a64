"""Normalization constants: exact inference by a DP over subsets, and annealed importance sampling.

AIS interpolates from the uniform base (tau = 0, Z(0) = Fubini(N) * 2^K)
to the target (tau = 1) along an inverse-temperature ladder, accumulating
importance weights in the log domain across R independent runs, spread
over forked processes (``_fill_log_weights``).  Every AIS routine takes a
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
from typing import Optional

import numpy as np

from .combinatorics import EXACT_TERMS, EnumerationCapError, fubini, sample_uniform_ordered_partition
from .core import log_weight, logsumexp
from .latent import gibbs_mh_step
from .learning import CFParams

__all__ = [
    "AISConfig",
    "AISResult",
    "check_exact_terms",
    "exact_inference",
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


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f``, ``math.exp`` or ``math.log``, of each element, 2^16 at a time:
    numpy's own exp and log round differently on each CPU it dispatches to."""
    out, flat, chunk = np.empty(x.size), x.ravel(), 1 << 16
    for start in range(0, x.size, chunk):
        out[start : start + chunk] = list(map(f, flat[start : start + chunk].tolist()))
    return out.reshape(x.shape)


def _normalized(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log sum exp(terms), exp(terms) over that sum) along the last axis."""
    top = terms.max(axis=-1, keepdims=True)
    e = _libm(math.exp, terms - top)
    total = e.sum(axis=-1, keepdims=True)
    return (top + _libm(math.log, total))[..., 0], e / total


def check_exact_terms(n: int, k: int) -> None:
    """Refuse exact inference over n objects and K hidden units, whose 3^n
    2^K terms exceed ``EXACT_TERMS``, before any model of that size is built."""
    if 3 ** min(n, 64) << min(k, 64) > EXACT_TERMS:  # clamped: no big integer
        raise EnumerationCapError(
            f"exact inference at n={n}, K={k} refused: 3^n 2^K terms exceed the bound {EXACT_TERMS}")


def exact_inference(m: CFParams) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z of m and its pair marginals, ``order[i, j]`` = P(i ranked above
    j) and ``tie[i, j]`` = P(i tied with j), by a DP over subsets.

    Hidden setting h makes m the worth model nu_h = nu (1 + |h|), w_h = u +
    sum_{k in h} W_k, and Z = sum_h Z_h.  A block S with t objects below it
    adds g_h(S, t) = nu_h C(|S|, 2) + (t + (|S| - 1) / 2) sum_S w_h to log
    Omega, so the ordered partitions of a bitmask R weigh Z_h[R] = sum_{S in
    R} e^{g_h(S, |R - S|)} Z_h[R - S], S the top block.  Those terms over
    their sum are P(top block S | objects left R, h): a chain from h ~ Z_h /
    Z down to no object.  P(S is a block) sums its flow through the steps
    that take S, and P(i above j) through those that take j from a set
    without i.  It has 3^n steps per h; 3^n 2^K past ``EXACT_TERMS`` is refused.
    """
    n, k = m.n_objects, m.n_hidden
    check_exact_terms(n, k)
    w, nu = m.u[None, :], np.array([m.nu])  # one row per hidden setting, a left fold over the units
    for unit in range(k):
        w, nu = np.concatenate([w, w + m.W[:, unit]]), np.concatenate([nu, nu + m.nu])
    full = (1 << n) - 1
    members = (np.arange(full + 1)[:, None] >> np.arange(n)) & 1  # [S, i]: is i in the bitmask S
    size, sum_w = members.sum(axis=1), np.einsum("hi,si->hs", w, members)
    log_zh, layers = np.zeros((len(nu), full + 1)), []
    for r in range(1, n + 1):  # the sets R of r objects; S[i] the non-empty subsets of R[i]
        R = np.flatnonzero(size == r)
        S, left = np.zeros((len(R), 1), dtype=np.intp), R
        for _ in range(r):
            low = left & -left
            S, left = np.concatenate([S, S | low[:, None]], axis=1), left ^ low
        S, s = S[:, 1:], size[S[:, 1:]]
        terms = (nu[:, None, None] * (s * (s - 1) // 2) + (r - s + 0.5 * (s - 1)) * sum_w[:, S]
                 + log_zh[:, R[:, None] ^ S])
        log_zh[:, R], step = _normalized(terms)
        layers.append((R, S, step))
    flow = np.zeros_like(log_zh)  # [h, R]: P(h, and the chain passes through R)
    log_z, flow[:, full] = _normalized(log_zh[:, full])
    taken = np.zeros((full + 1, n))  # [R, j]: P(the chain takes j's block from R)
    block = np.zeros(full + 1)  # [S]: P(S is a block)
    for R, S, step in reversed(layers):
        step = flow[:, R, None] * step
        into = (R[:, None] ^ S) + (np.arange(len(nu)) * (full + 1))[:, None, None]
        flow += np.bincount(into.ravel(), step.ravel(), flow.size).reshape(flow.shape)
        step = step.sum(axis=0)
        block += np.bincount(S.ravel(), step.ravel(), full + 1)
        taken[R] = np.stack([(step * (S >> j & 1)).sum(axis=1) for j in range(n)], axis=1)
    order = np.einsum("ri,rj->ij", 1 - members, taken)
    tie = np.einsum("s,si,sj->ij", block, members, members)
    return float(log_z), order, tie


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
