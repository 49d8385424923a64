"""Ranking quality metrics over graded relevance lists.

Both metrics take the grade sequence of items in predicted order (best
predicted first) and emphasize the top of the list.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["ndcg_at", "err", "dcg_at"]


def dcg_at(grades: Sequence[float], truncation: int) -> float:
    """sum_{i<=T} (2^{r_i} - 1) / log2(1 + i), positions starting at 1."""
    return sum(
        (2.0**r - 1.0) / math.log2(i + 2.0) for i, r in enumerate(grades[:truncation])
    )


def ndcg_at(grades_in_predicted_order: Sequence[float], truncation: int) -> float:
    """Normalized discounted cumulative gain at cut-off ``truncation``.

    The normalizer is the DCG of the ideal (descending-grade) ordering of
    the same grades, so a correct ranking scores exactly 1.  An all-zero
    ideal (every grade 0) scores 1 by convention.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    grades = list(grades_in_predicted_order)
    if not grades:
        raise ValueError("empty grade list")
    if any(r < 0 for r in grades):
        raise ValueError("grades must be non-negative")
    ideal = dcg_at(sorted(grades, reverse=True), truncation)
    if ideal == 0.0:
        return 1.0
    return dcg_at(grades, truncation) / ideal


def err(grades_in_predicted_order: Sequence[int]) -> float:
    """Expected reciprocal rank with stopping probability V(r) = (2^{r-1} - 1)/16.

    Grades must be integers in 1..5 (V(1) = 0, V(5) = 15/16), keeping V a
    valid stopping probability.
    """
    grades = list(grades_in_predicted_order)
    if not grades:
        raise ValueError("empty grade list")
    total = 0.0
    continue_prob = 1.0
    for i, r in enumerate(grades, start=1):
        if r != int(r) or not 1 <= int(r) <= 5:
            raise ValueError(f"ERR grade must be an integer in 1..5, got {r}")
        v = (2.0 ** (int(r) - 1) - 1.0) / 16.0
        total += continue_prob * v / i
        continue_prob *= 1.0 - v
    return total
