"""Split-and-merge Metropolis-Hastings kernel over ordered set partitions.

A split divides one non-singleton block into two adjacent sub-blocks (the
second inserted right after the first); a merge joins two consecutive
blocks.  Moves are accepted with probability min{1, l * p} where l is the
local weight ratio and p the proposal probability ratio.

The proposal draws two distinct seed objects (first seeds the upper
sub-block, second the lower) and assigns each remaining member by a fair
coin, so a specific ordered bipartition (A, B) is reachable through
|A|*|B| seed pairs.  The Hastings ratio therefore uses the outcome-level
proposal probability

    Q(split to (A,B) | X) = q_kind / T_split * |A||B| / (N_t (N_t-1) 2^(N_t-2))
    Q(merge back | X')    = q_kind' / (T' - 1)

with q_kind the move-type probability (1/2 when both kinds are feasible,
1 when only one is).  Exact detailed balance of the induced kernel is
verified against full enumeration in the tests.

``advance_partition`` is the kernel every chain runs: ``sample --n`` without
``--model`` steps it on one ``LocalWorths`` of the uniform model, and
``latent.gibbs_mh_step`` (training, AIS and ``sample --model``) on each
sweep's effective worths.  The proposal
objects ``propose_split`` and ``propose_merge`` build a validated partition
per move.  The tests step them as the reference kernel (``_single_move`` in
``tests/oracles.py``, with the exact ``transition_matrix``) and require the
same draws and the same trajectory.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .combinatorics import OrderedPartition
from .core import LocalWorths, log_ratio_merge, log_ratio_split

__all__ = [
    "InfeasibleMoveError",
    "MoveProposal",
    "MoveStats",
    "SamplerConfig",
    "propose_split",
    "propose_merge",
    "advance_partition",
]

LOG2 = math.log(2.0)
LOG_HALF = -LOG2


class InfeasibleMoveError(RuntimeError):
    """The requested move kind has no legal instance in this state."""


@dataclass
class MoveProposal:
    kind: str  # "split" or "merge"
    block_index: int
    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    log_q_ratio: float
    log_l_ratio: float
    proposed: OrderedPartition


@dataclass
class MoveStats:
    split_proposed: int = 0
    split_accepted: int = 0
    merge_proposed: int = 0
    merge_accepted: int = 0
    no_move_steps: int = 0


@dataclass
class SamplerConfig:
    steps: int
    burn_in: Optional[int] = None
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")

    def resolved_burn_in(self) -> int:
        return self.steps // 10 if self.burn_in is None else self.burn_in


def _split_log_q_ratio(t_split: int, nt: int, t_pre: int, ab: int) -> float:
    """log Q(merge back)/Q(this split outcome); t_pre = block count before the split."""
    return (
        math.log(t_split)
        + math.log(nt)
        + math.log(nt - 1)
        + (nt - 2) * LOG2
        - math.log(t_pre)
        - math.log(ab)
    )


def _merge_log_q_ratio(t_pre: int, t_merge: int, n1: int, n2: int) -> float:
    """log Q(split back)/Q(this merge); t_pre = block count before the merge."""
    ns = n1 + n2
    return (
        math.log(t_pre - 1)
        + math.log(n1 * n2)
        - math.log(t_merge)
        - math.log(ns)
        - math.log(ns - 1)
        - (ns - 2) * LOG2
    )


def propose_split(X: OrderedPartition, rng: random.Random, m=None) -> MoveProposal:
    """Draw a split move: pick a non-singleton block uniformly, seed the two
    sub-blocks with two distinct objects (seed order fixes sub-block order),
    coin-flip the rest.  log_l_ratio is evaluated under ``m``, a pair model
    (``log_ratio_split``), or is exactly 0, the uniform model's, without one."""
    splittable = [t for t, b in enumerate(X.blocks) if len(b) > 1]
    if not splittable:
        raise InfeasibleMoveError("no non-singleton block to split")
    t = splittable[rng.randrange(len(splittable))]
    block = X.blocks[t]
    nt = len(block)
    first, second = rng.sample(block, 2)
    upper, lower = [first], [second]
    for x in block:
        if x != first and x != second:
            (upper if rng.random() < 0.5 else lower).append(x)
    A = tuple(sorted(upper))
    B = tuple(sorted(lower))
    log_q = _split_log_q_ratio(len(splittable), nt, X.n_blocks, len(A) * len(B))
    proposed = OrderedPartition(X.blocks[:t] + (A, B) + X.blocks[t + 1 :], X.n_objects)
    log_l = log_ratio_split(X, t, (A, B), m) if m is not None else 0.0
    return MoveProposal("split", t, (A, B), log_q, log_l, proposed)


def propose_merge(X: OrderedPartition, rng: random.Random, m=None) -> MoveProposal:
    """Draw a merge move: pick one of the T-1 consecutive block pairs uniformly."""
    T = X.n_blocks
    if T < 2:
        raise InfeasibleMoveError("need at least two blocks to merge")
    t = rng.randrange(T - 1)
    b1, b2 = X.blocks[t], X.blocks[t + 1]
    merged = tuple(sorted(b1 + b2))
    proposed = OrderedPartition(X.blocks[:t] + (merged,) + X.blocks[t + 2 :], X.n_objects)
    t_merge = sum(1 for b in proposed.blocks if len(b) > 1)
    log_q = _merge_log_q_ratio(T, t_merge, len(b1), len(b2))
    log_l = log_ratio_merge(X, t, m) if m is not None else 0.0
    return MoveProposal("merge", t, None, log_q, log_l, proposed)


_LOG = [-math.inf]  # _LOG[i] == math.log(i); advance_partition grows it to its object count + 1


def advance_partition(
    X: OrderedPartition,
    m,
    rng: random.Random,
    steps: int,
    stats: Optional[MoveStats] = None,
) -> OrderedPartition:
    """Apply ``steps`` MH transitions, counting them into ``stats`` if given.

    The chain is held as a mutable list of sorted blocks plus ``big``, the
    ascending positions of the splittable (non-singleton) blocks: a split
    proposal picks ``big[r]`` directly, and an accepted move rewrites
    ``big`` from the changed position on, so no move scans the blocks.

    ``rng`` is a ``random.Random``, drawn in exactly the order of the
    reference step over ``propose_split`` and ``propose_merge``.  Its
    ``randrange(k)`` and ``sample(block, 2)`` are
    inlined as CPython makes them (the ``getrandbits(k.bit_length())``
    rejection loop of ``_randbelow_with_getrandbits``; ``sample``'s pool
    path for blocks of at most 21 objects and its set path above), so the
    trajectory and the RNG state equal the reference kernel's.  The
    Hastings terms are those of ``_split_log_q_ratio`` and
    ``_merge_log_q_ratio``, in the same order, read from a table of
    ``math.log(i)``.  Each call takes one ratio function and calls it once
    per proposal: ``ratio(upper, lower)`` for a split and ``-ratio(b1, b2)``
    for a merge.  A ``LocalWorths`` (``m`` may be one, and a worth model's
    ``split_ratio`` of the chain's objects is one) gives its ``ratio()``, the
    closed form with each side's worths folded left to right in sorted
    order, as ``local_ratio`` of ``tests/oracles.py`` folds them; a pair
    table's ``split_ratio`` is its own.  One ``OrderedPartition`` is built
    on return, unchecked since it is valid by construction, and none when no
    move was accepted.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    blocks = [list(b) for b in X.blocks]
    big = [t for t, b in enumerate(blocks) if len(b) > 1]
    local = m if type(m) is LocalWorths else m.split_ratio([x for b in blocks for x in b])
    ratio = local.ratio() if type(local) is LocalWorths else local
    n = sum(map(len, blocks))
    global _LOG
    LOG = _LOG
    if len(LOG) <= n:  # a new list, not an extended one: a chain never sees a table change
        LOG = _LOG = [-math.inf, *map(math.log, range(1, n + 1))]
    log, exp = math.log, math.exp
    uniform, getrandbits = rng.random, rng.getrandbits
    split_proposed = split_accepted = merge_proposed = merge_accepted = no_move = 0
    for _ in range(steps):
        T = len(blocks)
        n_split = len(big)
        if n_split and T > 1:
            split = uniform() < 0.5
            log_q_kind_fwd = LOG_HALF
        elif n_split or T > 1:
            split = n_split > 0
            log_q_kind_fwd = 0.0
        else:
            no_move += 1
            continue

        if split:
            split_proposed += 1
            k = n_split.bit_length()  # r = randrange(n_split)
            r = getrandbits(k)
            while r >= n_split:
                r = getrandbits(k)
            t = big[r]
            block = blocks[t]
            nt = len(block)
            k = nt.bit_length()  # first, second = sample(block, 2)
            i = getrandbits(k)
            while i >= nt:
                i = getrandbits(k)
            if nt <= 21:  # pool path: the second draw is below nt - 1, and i's slot holds the last object
                nt1 = nt - 1
                k = nt1.bit_length()
                j = getrandbits(k)
                while j >= nt1:
                    j = getrandbits(k)
                if j == i:
                    j = nt1
            else:  # set path: redraw below nt until the index differs from i
                j = i
                while j == i:
                    j = getrandbits(k)
                    while j >= nt:
                        j = getrandbits(k)
            first, second = block[i], block[j]
            upper, lower = [], []
            for x in block:  # in sorted order: the halves come out sorted
                if x == first or (x != second and uniform() < 0.5):
                    upper.append(x)
                else:
                    lower.append(x)
            na, nb = len(upper), len(lower)
            log_accept = (
                ratio(upper, lower)
                + (LOG[n_split] + LOG[nt] + LOG[nt - 1] + (nt - 2) * LOG2 - LOG[T] - log(na * nb))
                + (LOG_HALF if nt > 2 or n_split > 1 else 0.0)
                - log_q_kind_fwd
            )
            if log_accept >= 0.0 or uniform() < exp(log_accept):
                blocks[t : t + 1] = [upper, lower]
                head = [t] if na > 1 else []
                if nb > 1:
                    head.append(t + 1)
                big[r:] = head + [p + 1 for p in big[r + 1 :]]
                split_accepted += 1
        else:
            merge_proposed += 1
            k = (T - 1).bit_length()  # t = randrange(T - 1)
            t = getrandbits(k)
            while t >= T - 1:
                t = getrandbits(k)
            b1, b2 = blocks[t], blocks[t + 1]
            n1, n2 = len(b1), len(b2)
            ns = n1 + n2
            n_split_after = n_split + 1 - (n1 > 1) - (n2 > 1)
            log_accept = (
                -ratio(b1, b2)
                + (LOG[T - 1] + log(n1 * n2) - LOG[n_split_after] - LOG[ns] - LOG[ns - 1] - (ns - 2) * LOG2)
                + (LOG_HALF if T - 1 >= 2 else 0.0)
                - log_q_kind_fwd
            )
            if log_accept >= 0.0 or uniform() < exp(log_accept):
                blocks[t : t + 2] = [sorted(b1 + b2)]
                i = bisect_left(big, t)  # drop the entries for t and t + 1
                big[i:] = [t] + [p - 1 for p in big[i + (n1 > 1) + (n2 > 1) :]]
                merge_accepted += 1

    if stats is not None:
        stats.split_proposed += split_proposed
        stats.split_accepted += split_accepted
        stats.merge_proposed += merge_proposed
        stats.merge_accepted += merge_accepted
        stats.no_move_steps += no_move
    if not (split_accepted or merge_accepted):
        return X
    return OrderedPartition._unchecked(tuple(map(tuple, blocks)), X.n_objects)
