"""In-memory span tracer for a traced in-process run of ``osmrank.cli.main``.

``install()`` wraps the public functions in ``TRACED`` at every module
attribute of a loaded ``osmrank`` module that holds them, so each caller's
lookup (``osmrank.cli.train``, ``osmrank.latent.advance_partition``,
``osmrank.partition_function.advance_partition``, ...) goes through the
wrapper.  Nothing under ``src/`` is edited.  Only the traced child process
imports this module; untraced runs never load the wrappers.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written out once, after the run.  A span's self time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "osmrank.pipeline": [
        "load_ratings", "grade_ratings", "entropy_filter", "train_test_split",
        "user_partitions", "evaluate_ranking", "complete_rank",
    ],
    "osmrank.metrics": ["ndcg_at", "err"],
    "osmrank.learning": [
        "cf_latent_model", "train", "estimate_gradient", "pairwise_disagreement",
        "save_checkpoint", "load_checkpoint",
    ],
    "osmrank.latent": ["gibbs_mh_step", "hidden_posterior", "sample_hidden", "effective_pair_model"],
    "osmrank.sampler": ["advance_partition", "propose_split", "propose_merge"],
    "osmrank.core": ["log_ratio_split", "log_ratio_merge", "log_weight"],
    "osmrank.combinatorics": ["sample_uniform_ordered_partition"],
    "osmrank.partition_function": ["ais_log_z"],
}

PREPROCESS = ("grade_ratings", "entropy_filter", "train_test_split", "user_partitions")


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.stack: list[int] = []
        self.moves = 0  # sum of advance_partition's ``steps``
        self.partitions_built = 0
        self.partitions_in_moves = 0
        self.block_ends: list[float] = []  # train callback times
        self.train_start = 0.0

    def span(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self.stack, time.perf_counter, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)

        return traced

    def _count_moves(self, fn):
        @functools.wraps(fn)
        def advance(*args, **kwargs):
            built = self.partitions_built
            try:
                return fn(*args, **kwargs)
            finally:
                self.moves += kwargs["steps"] if "steps" in kwargs else args[3]
                self.partitions_in_moves += self.partitions_built - built

        return advance

    def _time_blocks(self, fn):
        @functools.wraps(fn)
        def train(*args, callback=None, **kwargs):
            self.train_start = time.perf_counter()

            def timed(record):
                self.block_ends.append(time.perf_counter())
                if callback is not None:
                    callback(record)

            return fn(*args, callback=timed, **kwargs)

        return train

    def install(self) -> None:
        import osmrank.combinatorics as combinatorics

        modules = [m for name, m in sys.modules.items() if name.startswith("osmrank") and m]
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                inner = original
                if name == "advance_partition":
                    inner = self._count_moves(inner)
                elif name == "train":
                    inner = self._time_blocks(inner)
                wrapped = self.span(f"{short}.{name}", inner)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

        post_init = combinatorics.OrderedPartition.__post_init__

        def counted(partition):
            self.partitions_built += 1
            post_init(partition)

        combinatorics.OrderedPartition.__post_init__ = counted

    def summary(self) -> dict:
        """Per span name: calls, busy and self seconds; root-level busy (spans
        called straight from the CLI); durations for the per-call tails."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict = {}
        durations = defaultdict(list)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "root_s": 0.0})
            d = end - start
            s["calls"] += 1
            s["busy_s"] += d
            s["self_s"] += d - child[index]
            if parent < 0:
                s["root_s"] += d
            durations[name].append(d)
        blocks = []
        previous = self.train_start
        for t in self.block_ends:
            blocks.append(t - previous)
            previous = t
        return {
            "spans": stats,
            "complete_rank_s": sorted(durations["pipeline.complete_rank"]),
            "block_s": sorted(blocks),
            "moves": self.moves,
            "partitions_built": self.partitions_built,
            "partitions_in_moves": self.partitions_in_moves,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run_id}\n")


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(sorted_values: list) -> float:
    """The highest of a fixed ladder of percentiles with at least ten
    samples beyond it (the median when there are too few samples)."""
    n = len(sorted_values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def layer_metrics(summary: dict, records: int, temp_steps: int) -> dict:
    """Per-layer metric values from one traced run's summary.

    ``records`` is the ratings file's record count, ``temp_steps`` the
    AIS run-temperature steps (R x S); both come from the workload."""
    spans = summary["spans"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "root_s": 0.0}

    def get(name):
        return spans.get(name, zero)

    def busy(*names):
        return sum(get(n)["busy_s"] for n in names)

    def per_call(name, scale):
        s = get(name)
        return s["busy_s"] / s["calls"] * scale if s["calls"] else 0.0

    load_s = busy("pipeline.load_ratings")
    moves = summary["moves"]
    splits = get("sampler.propose_split")["calls"]
    merges = get("sampler.propose_merge")["calls"]
    blocks = summary["block_s"]
    ranks = summary["complete_rank_s"]
    return {
        "pipeline.load_ratings_s": load_s,
        "pipeline.records_per_s": records / load_s if load_s else 0.0,
        "pipeline.preprocess_s": sum(get(f"pipeline.{n}")["root_s"] for n in PREPROCESS),
        "pipeline.evaluate_s": busy("pipeline.evaluate_ranking"),
        "pipeline.complete_rank_us.p50": percentile(ranks, 50) * 1e6,
        "pipeline.complete_rank_us.p99": percentile(ranks, 99) * 1e6,
        "metrics.ndcg_us": per_call("metrics.ndcg_at", 1e6),
        "metrics.err_us": per_call("metrics.err", 1e6),
        "metrics.ndcg_calls": get("metrics.ndcg_at")["calls"],
        "metrics.err_calls": get("metrics.err")["calls"],
        "learning.train_s": busy("learning.train"),
        "learning.cf_latent_model_calls": get("learning.cf_latent_model")["calls"],
        "learning.cf_latent_model_s": busy("learning.cf_latent_model"),
        "learning.block_ms.p50": percentile(blocks, 50) * 1e3,
        "learning.block_ms.tail": percentile(blocks, tail_percentile(blocks)) * 1e3,
        "learning.estimate_gradient_s": busy("learning.estimate_gradient"),
        "learning.disagreement_s": busy("learning.pairwise_disagreement"),
        "learning.checkpoint_s": busy("learning.save_checkpoint", "learning.load_checkpoint"),
        "latent.sweeps": get("latent.gibbs_mh_step")["calls"],
        "latent.sweep_us": per_call("latent.gibbs_mh_step", 1e6),
        "latent.posterior_us": per_call("latent.hidden_posterior", 1e6),
        "latent.hidden_draw_us": per_call("latent.sample_hidden", 1e6),
        "latent.effective_model_us": per_call("latent.effective_pair_model", 1e6),
        "sampler.moves": moves,
        "sampler.move_us": busy("sampler.advance_partition") / moves * 1e6 if moves else 0.0,
        "sampler.propose_split_us": per_call("sampler.propose_split", 1e6),
        "sampler.propose_merge_us": per_call("sampler.propose_merge", 1e6),
        "sampler.split_share": splits / (splits + merges) if splits + merges else 0.0,
        "core.split_ratio_us": per_call("core.log_ratio_split", 1e6),
        "core.merge_ratio_us": per_call("core.log_ratio_merge", 1e6),
        "core.log_weight_calls": get("core.log_weight")["calls"],
        "core.log_weight_s": busy("core.log_weight"),
        "combinatorics.partitions_built": summary["partitions_built"],
        "combinatorics.partitions_per_move": summary["partitions_in_moves"] / moves if moves else 0.0,
        "combinatorics.uniform_draw_ms": per_call("combinatorics.sample_uniform_ordered_partition", 1e3),
        "partition_function.ais_s": busy("partition_function.ais_log_z"),
        "partition_function.temp_step_ms": (
            busy("partition_function.ais_log_z") / temp_steps * 1e3 if temp_steps else 0.0
        ),
    }
