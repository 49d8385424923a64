"""Exact combinatorics over ordered set partitions.

An ordered set partition of n objects is a sequence of disjoint non-empty
blocks whose union is the whole object set; block order carries rank
(block 0 outranks block 1, and so on).  Everything here is exact integer
arithmetic so it can serve as the brute-force oracle for the samplers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "OrderedPartition",
    "EnumerationCapError",
    "fubini",
    "log_fubini_asymptotic",
    "enumerate_ordered_partitions",
    "sample_uniform_ordered_partition",
    "format_partition",
]

DEFAULT_ENUMERATION_CAP = 8


class EnumerationCapError(ValueError):
    """Raised when an exact enumeration or computation would exceed its size cap."""


@dataclass(frozen=True, slots=True)
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
    # ``core.worth_features(self)``, filled in on its first call; not part of
    # the value.  Three slots, not one tuple: training keeps thousands alive.
    _feature_pairs: int = field(default=0, init=False, repr=False, compare=False)
    _feature_items: Any = field(default=None, init=False, repr=False, compare=False)
    _feature_coef: Any = field(default=None, init=False, repr=False, compare=False)

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
    def _unchecked(blocks: tuple[tuple[int, ...], ...], n_objects: int) -> "OrderedPartition":
        """``OrderedPartition(blocks, n_objects)`` without the checks of
        ``__post_init__``, for blocks that are valid by construction (the
        samplers' and the enumerator's); parsed and user input goes through
        the checked constructor."""
        X = object.__new__(OrderedPartition)
        set_blocks, set_n_objects, set_pairs, set_items, set_coef = _PARTITION_SLOT_SETTERS
        set_blocks(X, blocks)
        set_n_objects(X, n_objects)
        set_pairs(X, 0)
        set_items(X, None)
        set_coef(X, None)
        return X

    @staticmethod
    def singletons(n: int) -> "OrderedPartition":
        return OrderedPartition(tuple((i,) for i in range(n)), n)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def objects(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))


# ``_unchecked`` writes the frozen class's slots through their descriptors,
# as the generated ``__init__`` does through ``object.__setattr__``, but faster.
_PARTITION_SLOT_SETTERS = tuple(
    getattr(OrderedPartition, name).__set__
    for name in ("blocks", "n_objects", "_feature_pairs", "_feature_items", "_feature_coef")
)


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
    log2 = math.log(2.0)
    return math.lgamma(n + 1) - log2 - (n + 1) * math.log(log2)


def _fubini_size(n: int) -> str:
    """``= fubini(n)`` while that has at most 50 digits, else its order of
    magnitude from ``log_fubini_asymptotic``, without the big integer."""
    log10 = log_fubini_asymptotic(n) / math.log(10)
    return f"= {fubini(n)}" if log10 < 50 else f"~ 10^{log10:.1f}"


def enumerate_ordered_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[OrderedPartition]:
    """Yield every ordered set partition of {0..n-1} exactly once.

    Generated by choosing the top-ranked block and recursing on the
    remainder, the same decomposition the uniform sampler uses.  Refuses
    when n exceeds ``cap`` (fubini grows super-exponentially), on the call
    itself, so a caller can check before writing anything.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration of n={n} refused: fubini({n}) {_fubini_size(n)} states exceeds cap {cap} "
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

    return (OrderedPartition._unchecked(blocks, n) for blocks in rec(tuple(range(n))))


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
    return OrderedPartition._unchecked(tuple(blocks), n)


def format_partition(X: OrderedPartition) -> str:
    """Encode as text: items comma-separated inside blocks, blocks joined by '>'."""
    return ">".join(",".join(str(x) for x in block) for block in X.blocks)
