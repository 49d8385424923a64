"""Shared test utilities: independent brute-force oracles and tiny fakes.

The oracles here deliberately avoid the library's own code paths (they
count via surjections and raw assignment vectors) so library bugs cannot
cancel against test bugs.
"""

from __future__ import annotations

import itertools

import numpy as np


def brute_force_set_partitions(n: int, t: int) -> int:
    """Count partitions of an n-set into exactly t unlabeled non-empty blocks
    by canonicalizing every assignment vector."""
    seen = set()
    for assign in itertools.product(range(t), repeat=n):
        if len(set(assign)) != t:
            continue
        blocks = frozenset(
            frozenset(i for i in range(n) if assign[i] == b) for b in range(t)
        )
        seen.add(blocks)
    return len(seen)


def brute_force_ordered_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered set partitions of {0..n-1} as block tuples, via rank
    functions: assignments onto a contiguous label range 0..T-1."""
    out = []
    for assign in itertools.product(range(n), repeat=n):
        labels = set(assign)
        if labels != set(range(len(labels))):
            continue
        blocks = tuple(
            tuple(i for i in range(n) if assign[i] == b) for b in range(len(labels))
        )
        out.append(blocks)
    return out


def random_matrix_model(n: int, seed: int, scale: float = 1.0):
    from osmrank.core import MatrixPairModel

    rng = np.random.default_rng(seed)
    tie = rng.uniform(-scale, scale, (n, n))
    tie = 0.5 * (tie + tie.T)
    order = rng.uniform(-scale, scale, (n, n))
    return MatrixPairModel(tie, order)


def random_latent_model(n: int, k: int, seed: int, scale: float = 1.0):
    from osmrank.latent import LatentModel

    base = random_matrix_model(n, seed, scale)
    hidden = [random_matrix_model(n, seed + 1000 + i, scale) for i in range(k)]
    return LatentModel(base, hidden)


class FakeRng:
    """Deterministic stand-in feeding prescribed draws to proposal code."""

    def __init__(self, randrange_values=(), sample_values=(), random_values=()):
        self._randrange = list(randrange_values)
        self._sample = list(sample_values)
        self._random = list(random_values)

    def randrange(self, *_args):
        return self._randrange.pop(0)

    def sample(self, _population, _k):
        return self._sample.pop(0)

    def random(self):
        return self._random.pop(0)


def reference_load_ratings(path: str, fmt: str = "movielens_dcolon", fourth_field: bool = True):
    """The per-line rating parser ``load_ratings`` replaced, kept as an oracle.

    Returns the parsed (user, item, rating) records keyed by line number, in
    file order, and the numbers of the malformed lines.  With
    ``fourth_field`` (the old behaviour) a fourth field that is not a number
    makes its line malformed; ``load_ratings`` ignores fields after the
    rating.
    """
    records, bad = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if fmt == "csv" and lineno == 1:
                continue  # header
            parts = line.split("::") if fmt == "movielens_dcolon" else line.split(",")
            try:
                if len(parts) < 3:
                    raise ValueError
                record = (int(parts[0]), int(parts[1]), float(parts[2]))
                if fourth_field and len(parts) > 3:
                    float(parts[3])
            except ValueError:
                bad.append(lineno)
                continue
            records[lineno] = record
    return records, bad
