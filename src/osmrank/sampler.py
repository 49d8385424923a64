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

``advance_partition`` is the kernel every chain runs.  The proposal
objects (``propose_split``, ``propose_merge``, ``_single_move``) build a
validated partition per move and stay as the reference it is tested
against: same draws, same trajectory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .combinatorics import OrderedPartition, enumerate_ordered_partitions
from .core import PairPotentialModel, log_ratio_merge, log_ratio_split

__all__ = [
    "InfeasibleMoveError",
    "MoveProposal",
    "MoveStats",
    "ChainState",
    "SamplerConfig",
    "propose_split",
    "propose_merge",
    "mh_step",
    "advance_partition",
    "run_chain",
    "transition_matrix",
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

    def acceptance_rate(self, kind: str) -> float:
        proposed = getattr(self, f"{kind}_proposed")
        accepted = getattr(self, f"{kind}_accepted")
        return accepted / proposed if proposed else float("nan")

    def as_dict(self) -> dict[str, int]:
        return {
            "split_proposed": self.split_proposed,
            "split_accepted": self.split_accepted,
            "merge_proposed": self.merge_proposed,
            "merge_accepted": self.merge_accepted,
            "no_move_steps": self.no_move_steps,
        }


@dataclass
class ChainState:
    partition: OrderedPartition
    rng: random.Random
    stats: MoveStats = field(default_factory=MoveStats)
    step: int = 0


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


def propose_split(
    X: OrderedPartition, rng: random.Random, m: Optional[PairPotentialModel] = None
) -> MoveProposal:
    """Draw a split move: pick a non-singleton block uniformly, seed the two
    sub-blocks with two distinct objects (seed order fixes sub-block order),
    coin-flip the rest.  log_l_ratio is evaluated under ``m`` (uniform model
    when omitted, where it is exactly 0)."""
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


def propose_merge(
    X: OrderedPartition, rng: random.Random, m: Optional[PairPotentialModel] = None
) -> MoveProposal:
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


def _can_split(X: OrderedPartition) -> bool:
    return any(len(b) > 1 for b in X.blocks)


def _single_move(
    X: OrderedPartition, m: PairPotentialModel, rng: random.Random
) -> tuple[OrderedPartition, Optional[str], bool]:
    """One MH transition built from the validated proposals; the reference
    kernel ``advance_partition`` is tested against.  Returns (next
    partition, proposed kind or None, accepted)."""
    can_split = _can_split(X)
    can_merge = X.n_blocks > 1
    if not can_split and not can_merge:
        return X, None, False
    if can_split and can_merge:
        kind = "split" if rng.random() < 0.5 else "merge"
        log_q_kind_fwd = LOG_HALF
    elif can_split:
        kind, log_q_kind_fwd = "split", 0.0
    else:
        kind, log_q_kind_fwd = "merge", 0.0

    if kind == "split":
        prop = propose_split(X, rng, m)
        # reverse kind (merge) competes with split at X' only if X' still has
        # a non-singleton block
        nt = len(X.blocks[prop.block_index])
        splittable_after = nt > 2 or sum(1 for b in X.blocks if len(b) > 1) > 1
        log_q_kind_rev = LOG_HALF if splittable_after else 0.0
    else:
        prop = propose_merge(X, rng, m)
        # reverse kind (split) competes with merge at X' only if X' has >= 2 blocks
        log_q_kind_rev = LOG_HALF if X.n_blocks - 1 >= 2 else 0.0

    log_accept = prop.log_l_ratio + prop.log_q_ratio + log_q_kind_rev - log_q_kind_fwd
    if log_accept >= 0.0 or rng.random() < math.exp(log_accept):
        return prop.proposed, kind, True
    return X, kind, False


def mh_step(state: ChainState, m: PairPotentialModel) -> ChainState:
    """Advance the chain by one split-or-merge MH step, updating stats in place."""
    state.partition = advance_partition(state.partition, m, state.rng, 1, state.stats)
    state.step += 1
    return state


def advance_partition(
    X: OrderedPartition,
    m: PairPotentialModel,
    rng: random.Random,
    steps: int,
    stats: Optional[MoveStats] = None,
) -> OrderedPartition:
    """Apply ``steps`` MH transitions, counting them into ``stats`` if given.

    The chain is held as a mutable list of sorted blocks plus the count of
    splittable (non-singleton) blocks, so a move touches only the blocks it
    splits or merges.  ``rng`` is drawn in exactly the order of
    ``_single_move``; the local weight ratio comes from
    ``m.split_ratio``, and a merge's is the negated split ratio of the two
    blocks.  One ``OrderedPartition`` is built on return, and none when no
    move was accepted.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    blocks = [list(b) for b in X.blocks]
    n_split = sum(1 for b in blocks if len(b) > 1)
    ratio = m.split_ratio([x for b in blocks for x in b])
    uniform, randrange, sample, exp = rng.random, rng.randrange, rng.sample, math.exp
    split_proposed = split_accepted = merge_proposed = merge_accepted = no_move = 0
    for _ in range(steps):
        T = len(blocks)
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
            r = randrange(n_split)
            for t, block in enumerate(blocks):
                if len(block) > 1:
                    if not r:
                        break
                    r -= 1
            nt = len(block)
            first, second = sample(block, 2)
            upper, lower = [first], [second]
            for x in block:
                if x != first and x != second:
                    (upper if uniform() < 0.5 else lower).append(x)
            upper.sort()
            lower.sort()
            na, nb = len(upper), len(lower)
            log_accept = (
                ratio(upper, lower)
                + _split_log_q_ratio(n_split, nt, T, na * nb)
                + (LOG_HALF if nt > 2 or n_split > 1 else 0.0)
                - log_q_kind_fwd
            )
            if log_accept >= 0.0 or uniform() < exp(log_accept):
                blocks[t : t + 1] = [upper, lower]
                n_split += (na > 1) + (nb > 1) - 1
                split_accepted += 1
        else:
            merge_proposed += 1
            t = randrange(T - 1)
            b1, b2 = blocks[t], blocks[t + 1]
            n1, n2 = len(b1), len(b2)
            n_split_after = n_split + 1 - (n1 > 1) - (n2 > 1)
            log_accept = (
                -ratio(b1, b2)
                + _merge_log_q_ratio(T, n_split_after, n1, n2)
                + (LOG_HALF if T - 1 >= 2 else 0.0)
                - log_q_kind_fwd
            )
            if log_accept >= 0.0 or uniform() < exp(log_accept):
                blocks[t : t + 2] = [sorted(b1 + b2)]
                n_split = n_split_after
                merge_accepted += 1

    if stats is not None:
        stats.split_proposed += split_proposed
        stats.split_accepted += split_accepted
        stats.merge_proposed += merge_proposed
        stats.merge_accepted += merge_accepted
        stats.no_move_steps += no_move
    if not (split_accepted or merge_accepted):
        return X
    return OrderedPartition(tuple(map(tuple, blocks)), X.n_objects)


def run_chain(
    init: OrderedPartition, m: PairPotentialModel, cfg: SamplerConfig
) -> tuple[list[OrderedPartition], MoveStats]:
    """Run a chain from ``init``; returns thinned post-burn-in samples and stats.

    Deterministic given cfg.seed.
    """
    rng = random.Random(cfg.seed)
    stats = MoveStats()
    burn = min(cfg.resolved_burn_in(), cfg.steps)
    X = advance_partition(init, m, rng, burn, stats)
    samples: list[OrderedPartition] = []
    for _ in range((cfg.steps - burn) // cfg.thin):
        X = advance_partition(X, m, rng, cfg.thin, stats)
        samples.append(X)
    # moves after the last sample still count in stats
    advance_partition(X, m, rng, (cfg.steps - burn) % cfg.thin, stats)
    return samples, stats


def transition_matrix(
    m: PairPotentialModel, states: Optional[list[OrderedPartition]] = None
) -> tuple[list[OrderedPartition], np.ndarray]:
    """Exact one-step kernel of ``mh_step`` over the full state space.

    Enumerates every proposal outcome with its analytic probability and the
    same acceptance rule the sampler applies.  Only viable for small
    n_objects; used to verify detailed balance and the stationary
    distribution against exp(log_weight)/Z.
    """
    if states is None:
        states = list(enumerate_ordered_partitions(m.n_objects))
    index = {X.blocks: si for si, X in enumerate(states)}
    K = np.zeros((len(states), len(states)))

    for si, X in enumerate(states):
        T = X.n_blocks
        splittable = [t for t, b in enumerate(X.blocks) if len(b) > 1]
        can_split = bool(splittable)
        can_merge = T > 1
        if not can_split and not can_merge:
            K[si, si] = 1.0
            continue
        both = can_split and can_merge
        q_split_kind = (0.5 if both else 1.0) if can_split else 0.0
        q_merge_kind = (0.5 if both else 1.0) if can_merge else 0.0

        if can_split:
            log_q_kind_fwd = LOG_HALF if both else 0.0
            for t in splittable:
                block = X.blocks[t]
                nt = len(block)
                path_prob = q_split_kind / (len(splittable) * nt * (nt - 1) * 2 ** (nt - 2))
                splittable_after_base = len(splittable) > 1 or nt > 2
                for mask in range(1, (1 << nt) - 1):
                    A = tuple(block[i] for i in range(nt) if mask >> i & 1)
                    B = tuple(block[i] for i in range(nt) if not mask >> i & 1)
                    proposed = X.blocks[:t] + (A, B) + X.blocks[t + 1 :]
                    out_prob = path_prob * len(A) * len(B)
                    log_q = _split_log_q_ratio(len(splittable), nt, T, len(A) * len(B))
                    log_l = log_ratio_split(X, t, (A, B), m)
                    log_q_kind_rev = LOG_HALF if splittable_after_base else 0.0
                    alpha = min(1.0, math.exp(log_l + log_q + log_q_kind_rev - log_q_kind_fwd))
                    sj = index[proposed]
                    K[si, sj] += out_prob * alpha
                    K[si, si] += out_prob * (1.0 - alpha)

        if can_merge:
            log_q_kind_fwd = LOG_HALF if both else 0.0
            for t in range(T - 1):
                b1, b2 = X.blocks[t], X.blocks[t + 1]
                merged = tuple(sorted(b1 + b2))
                proposed = X.blocks[:t] + (merged,) + X.blocks[t + 2 :]
                t_merge = sum(1 for b in proposed if len(b) > 1)
                out_prob = q_merge_kind / (T - 1)
                log_q = _merge_log_q_ratio(T, t_merge, len(b1), len(b2))
                log_l = log_ratio_merge(X, t, m)
                log_q_kind_rev = LOG_HALF if T - 1 >= 2 else 0.0
                alpha = min(1.0, math.exp(log_l + log_q + log_q_kind_rev - log_q_kind_fwd))
                sj = index[proposed]
                K[si, sj] += out_prob * alpha
                K[si, si] += out_prob * (1.0 - alpha)

    return states, K
