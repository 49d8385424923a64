"""Exact combinatorics over ordered set partitions.

An ordered set partition of n objects is a sequence of disjoint non-empty
blocks whose union is the whole object set; block order carries rank
(block 0 outranks block 1, and so on).  Everything here is exact integer
arithmetic so it can serve as the brute-force oracle for the samplers.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "OrderedPartition",
    "EnumerationCapError",
    "stirling2",
    "fubini",
    "fubini_asymptotic",
    "log_fubini_asymptotic",
    "enumerate_ordered_partitions",
    "sample_uniform_ordered_partition",
    "format_partition",
    "parse_partition",
]

DEFAULT_ENUMERATION_CAP = 8

LOG2 = math.log(2.0)


class EnumerationCapError(ValueError):
    """Raised when an exact enumeration would exceed its configured cap."""


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered sequence of disjoint non-empty blocks of object indices.

    ``blocks`` is a tuple of sorted tuples.  Block ``t`` outranks block
    ``t+1``; objects within one block are tied.  ``n_objects`` is the size
    of the index universe: combinatorial routines require the blocks to
    cover ``{0..n_objects-1}`` exactly, while model code only requires
    indices to be in range (per-user partitions index a global catalog).
    """

    blocks: tuple[tuple[int, ...], ...]
    n_objects: int

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in ordered partition")
            for x in block:
                if not 0 <= x < self.n_objects:
                    raise ValueError(f"object index {x} outside [0, {self.n_objects})")
                if x in seen:
                    raise ValueError(f"object {x} appears in more than one block")
                seen.add(x)

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence[int]], n_objects: int | None = None) -> "OrderedPartition":
        tup = tuple(tuple(sorted(b)) for b in blocks)
        if n_objects is None:
            n_objects = 1 + max((x for b in tup for x in b), default=-1)
        return OrderedPartition(tup, n_objects)

    @staticmethod
    def singletons(n: int) -> "OrderedPartition":
        return OrderedPartition(tuple((i,) for i in range(n)), n)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def objects(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def covers_universe(self) -> bool:
        return sum(len(b) for b in self.blocks) == self.n_objects

    def block_of(self) -> dict[int, int]:
        """Map object index -> block index."""
        return {x: t for t, block in enumerate(self.blocks) for x in block}


def stirling2(n: int, t: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into t blocks."""
    if n < 0 or t < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    row = [1]  # S(m, 0..m), filled row by row from m = 0
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return row[t] if t <= n else 0


_FUBINI = [1]  # ordered Bell numbers a(0), a(1), ... computed so far
_SURJECTIONS = [1]  # t! S(m, t) for t = 0..m, with m = len(_FUBINI) - 1


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set (the ordered Bell number):
    row sums of the surjection triangle T(m, t) = t (T(m-1, t) + T(m-1, t-1))."""
    if n < 0:
        raise ValueError("fubini argument must be non-negative")
    row = _SURJECTIONS
    while len(_FUBINI) <= n:
        m = len(row)
        row[:] = [0] + [t * (row[t] + row[t - 1]) for t in range(1, m)] + [m * row[m - 1]]
        _FUBINI.append(sum(row))
    return _FUBINI[n]


def log_fubini_asymptotic(n: int) -> float:
    """log of the n! / (2 (log 2)^(n+1)) asymptote, safe for any n."""
    if n < 1:
        raise ValueError("asymptotic formula needs n >= 1")
    return math.lgamma(n + 1) - LOG2 - (n + 1) * math.log(LOG2)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def fubini_asymptotic(n: int) -> float:
    """Closed-form asymptotic ordered-Bell count; overflows raise OverflowError."""
    log_value = log_fubini_asymptotic(n)
    if log_value >= _LOG_FLOAT_MAX:
        raise OverflowError(f"fubini_asymptotic({n}) exceeds float range; use log_fubini_asymptotic")
    return math.exp(log_value)


def enumerate_ordered_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[OrderedPartition]:
    """Yield every ordered set partition of {0..n-1} exactly once.

    Generated by choosing the top-ranked block and recursing on the
    remainder, the same decomposition the uniform sampler uses.  Refuses
    when n exceeds ``cap`` (fubini grows super-exponentially).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of n={n} refused: fubini({n}) = {fubini(n)} states exceeds cap {cap} "
            f"(pass a larger cap to override)"
        )

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not remaining:
            yield ()
            return
        m = len(remaining)
        for mask in range(1, 1 << m):
            top = tuple(remaining[i] for i in range(m) if mask >> i & 1)
            rest = tuple(remaining[i] for i in range(m) if not mask >> i & 1)
            for tail in rec(rest):
                yield (top,) + tail

    for blocks in rec(tuple(range(n))):
        yield OrderedPartition(blocks, n)


def sample_uniform_ordered_partition(n: int, rng: random.Random) -> OrderedPartition:
    """Exact uniform draw over all fubini(n) ordered set partitions.

    Uses a(n) = sum_k C(n,k) a(n-k): pick the top block's size k with
    probability C(n,k) a(n-k) / a(n), pick its members uniformly, recurse.
    Integer arithmetic throughout, so the draw is exactly uniform.
    """
    if n < 1:
        raise ValueError("n must be positive")
    blocks: list[tuple[int, ...]] = []
    remaining = list(range(n))
    while remaining:
        m = len(remaining)
        r = rng.randrange(fubini(m))
        k = 1
        while True:
            w = math.comb(m, k) * fubini(m - k)
            if r < w:
                break
            r -= w
            k += 1
        members = sorted(rng.sample(remaining, k))
        blocks.append(tuple(members))
        member_set = set(members)
        remaining = [x for x in remaining if x not in member_set]
    return OrderedPartition(tuple(blocks), n)


def format_partition(X: OrderedPartition) -> str:
    """Encode as text: items comma-separated inside blocks, blocks joined by '>'."""
    return ">".join(",".join(str(x) for x in block) for block in X.blocks)


def parse_partition(text: str, n_objects: int | None = None) -> OrderedPartition:
    """Decode the '>'/',' text form; item order inside a block is irrelevant."""
    blocks = [[int(tok) for tok in part.split(",")] for part in text.strip().split(">")]
    return OrderedPartition.from_blocks(blocks, n_objects)
