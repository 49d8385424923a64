"""Seeded inputs for the benchmark workloads.

Everything the program reads is made here from the workload seed: a
MovieLens-format ratings file and two random checkpoints.  The files are
written with the standard library and numpy only, so a change to osmrank
never changes a workload's inputs.
"""

from __future__ import annotations

import os

import numpy as np

N_USERS = 2500
N_ITEMS = 2000  # about half survive the entropy filter
RATINGS_PER_USER = (40, 130)  # uniform range; ~212k records in all
AIS_ITEMS = 200
AIS_MODEL_SEED = 20140801
HIDDEN = 10


def write_ratings(path: str, seed: int) -> dict:
    """Ratings from a low-rank taste model with per-item bias, so items
    differ in rating entropy and the entropy filter has something to drop.
    Item popularity is Zipf-like.  Returns the file's shape."""
    rng = np.random.default_rng([seed, 1])
    bias = rng.normal(0.0, 1.0, N_ITEMS) * rng.uniform(0.2, 1.5, N_ITEMS)
    item_f = rng.normal(0.0, 0.6, (N_ITEMS, 3))
    user_f = rng.normal(0.0, 0.6, (N_USERS, 3))
    pop = 1.0 / np.arange(1, N_ITEMS + 1) ** 0.6
    pop = pop[rng.permutation(N_ITEMS)]
    pop /= pop.sum()
    lo, hi = RATINGS_PER_USER
    lines = []
    rated = np.zeros(N_ITEMS, dtype=bool)
    for user in range(N_USERS):
        count = int(rng.integers(lo, hi + 1))
        items = rng.choice(N_ITEMS, size=count, replace=False, p=pop)
        raw = 3.0 + bias[items] + item_f[items] @ user_f[user] + rng.normal(0.0, 0.7, count)
        stars = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0)
        rated[items] = True
        lines.extend(
            f"{user + 1}::{it + 1}::{r:g}::{978300000 + user}" for it, r in zip(items.tolist(), stars.tolist())
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    n_items = int(rated.sum())
    return {"records": len(lines), "items": n_items, "items_after_filter": n_items - n_items // 2}


def write_checkpoint(path: str, nu: float, u: np.ndarray, W: np.ndarray) -> None:
    """A checkpoint in the osmrank text format (version 1)."""
    lines = ["osmrank-checkpoint 1", f"n_items {u.size}", f"K {W.shape[1]}", f"nu {nu!r}"]
    lines.append("u " + " ".join(repr(v) for v in u.tolist()))
    lines.extend("W " + " ".join(repr(v) for v in row) for row in W.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(directory: str, seed: int) -> dict:
    """Write ratings.dat, eval.ck and ais.ck into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    shape = write_ratings(os.path.join(directory, "ratings.dat"), seed)
    n = shape["items_after_filter"]
    rng = np.random.default_rng([seed, 2])
    write_checkpoint(
        os.path.join(directory, "eval.ck"),
        float(rng.normal(-0.5, 0.1)), rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.3, (n, HIDDEN)),
    )
    # The AIS chain's cost follows the model's block structure, so every seed
    # gets one fixed model with its items relabelled.
    base = np.random.default_rng(AIS_MODEL_SEED)
    u, W = base.normal(0.0, 0.5, AIS_ITEMS), base.normal(0.0, 0.3, (AIS_ITEMS, HIDDEN))
    perm = np.random.default_rng([seed, 3]).permutation(AIS_ITEMS)
    write_checkpoint(os.path.join(directory, "ais.ck"), -0.5, u[perm], W[perm])
    return shape
