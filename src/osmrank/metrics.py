"""Ranking quality metrics over graded relevance lists.

Both metrics take the grades of items in predicted order (best predicted
first) and emphasize the top of the list.  They score many lists at once:
row r of a 2-d grade array is one list, of which only the first
``lengths[r]`` entries count (all of them when ``lengths`` is None); the
rest is padding.  ``ndcg_at`` and ``err`` score a single list.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = ["ndcg_at", "err", "ndcg_rows", "err_rows"]


def _masked(grades, lengths: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Grades as a float array with padding set to 0, and the validity mask."""
    g = np.asarray(grades, dtype=float)
    if g.ndim != 2:
        raise ValueError("grades must be a 2-d array, one list per row")
    width = g.shape[1]
    lengths = np.full(len(g), width) if lengths is None else np.asarray(lengths)
    if width == 0 or (lengths < 1).any():
        raise ValueError("empty grade list")
    valid = np.arange(width) < lengths[:, None]
    return np.where(valid, g, 0.0), valid


def _dcg_rows(g: np.ndarray, truncation: int) -> np.ndarray:
    """sum_{i<=T} (2^{r_i} - 1) / log2(1 + i) per row, positions from 1,
    summed left to right; padding (grade 0) adds exact zeros."""
    total = np.zeros(len(g))
    for i in range(min(truncation, g.shape[1])):
        total += (2.0 ** g[:, i] - 1.0) / math.log2(i + 2.0)
    return total


def ndcg_rows(grades, truncation: int, lengths: Optional[np.ndarray] = None,
              largest: Optional[float] = None) -> np.ndarray:
    """Normalized discounted cumulative gain at cut-off ``truncation``, per row.

    The normalizer is the DCG of the ideal (descending-grade) ordering of
    the same grades, so a correct ranking scores exactly 1.  An all-zero
    ideal (every grade 0) scores 1 by convention.  An overflowing gain is a
    ``ValueError`` naming ``largest``, by default the largest of ``grades``.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    g, _ = _masked(grades, lengths)
    if (g < 0).any():
        raise ValueError("grades must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing gain is reported below
        ideal = _dcg_rows(np.sort(g, axis=1)[:, ::-1], truncation)  # padding sorts last
        dcg = _dcg_rows(g, truncation)
    if not np.isfinite(ideal).all():
        largest = g.max() if largest is None else largest
        raise ValueError(f"NDCG gains 2**grade overflow (largest grade {largest:g})")
    zero = ideal == 0.0
    return np.where(zero, 1.0, dcg / np.where(zero, 1.0, ideal))


def err_rows(grades, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Expected reciprocal rank with stopping probability V(r) = (2^{r-1} - 1)/16,
    per row.

    Grades must be integers in 1..5 (V(1) = 0, V(5) = 15/16), keeping V a
    valid stopping probability.
    """
    g, valid = _masked(grades, lengths)
    bad = valid & ~((g == np.floor(g)) & (g >= 1) & (g <= 5))
    if bad.any():
        raise ValueError(f"ERR grade must be an integer in 1..5, got {g[bad][0]:g}")
    v = np.where(valid, (2.0 ** (g - 1) - 1.0) / 16.0, 0.0)  # padding never stops
    total = np.zeros(len(g))
    continue_prob = np.ones(len(g))
    for i in range(g.shape[1]):
        total += continue_prob * v[:, i] / (i + 1)
        continue_prob *= 1.0 - v[:, i]
    return total


def ndcg_at(grades_in_predicted_order: Sequence[float], truncation: int) -> float:
    """NDCG@truncation of one list (see ``ndcg_rows``)."""
    return float(ndcg_rows([list(grades_in_predicted_order)], truncation)[0])


def err(grades_in_predicted_order: Sequence[int]) -> float:
    """ERR of one list (see ``err_rows``)."""
    return float(err_rows([list(grades_in_predicted_order)])[0])
