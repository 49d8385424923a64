"""Command-line driver: training, evaluation, sampling, partition-function
estimation, and exact oracle utilities.

Exit codes: 0 success, 1 usage error, 2 data error, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import random
import sys
import warnings
from typing import Optional

import numpy as np

from .combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    format_partition,
    fubini,
)
from .core import uniform_pair_model
from .latent import gibbs_mh_step
from .learning import TrainConfig, load_checkpoint, save_checkpoint, train, trainable_users
from .partition_function import AISConfig, ais_log_z, exact_distribution, exact_log_z
from .pipeline import (
    SplitSpec,
    entropy_filter,
    evaluate_ranking,
    grade_ratings,
    load_ratings,
    parse_metrics,
    train_test_split,
    user_partitions,
)
from .sampler import SamplerConfig, run_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind, low, strict: bool = False):
    """An argparse type: a finite ``kind`` (int or float) no smaller than
    ``low``, and above it if ``strict``."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low) or value == math.inf:  # nan fails too
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_positive_int = _number(int, 1)
_non_negative_int = _number(int, 0)


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The file at ``path``, opened for writing and closed on exit, or stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _prepped_split(args):
    ds = grade_ratings(load_ratings(args.data, fmt=args.format), n_grades=args.grades,
                       scale=tuple(args.scale))
    if not args.keep_all_items:
        ds = entropy_filter(ds)
    min_ratings = args.min_ratings if args.min_ratings else args.n_train + 10
    spec = SplitSpec(n_train=args.n_train, min_ratings=min_ratings, seed=args.seed)
    return train_test_split(ds, spec)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="ratings file")
    p.add_argument("--format", default="movielens_dcolon", choices=["movielens_dcolon", "csv"])
    p.add_argument("--scale", type=float, nargs=2, default=[0.5, 5.0], metavar=("LO", "HI"))
    p.add_argument("--grades", type=_positive_int, default=5)
    p.add_argument("--n-train", type=_positive_int, default=10, help="training items per user")
    p.add_argument("--min-ratings", type=_non_negative_int, default=0,
                   help="default: n_train + 10")
    p.add_argument("--keep-all-items", action="store_true", help="skip the entropy filter")
    p.add_argument("--seed", type=int, default=0)


def cmd_train(args) -> int:
    train_ds, _ = _prepped_split(args)
    parts = user_partitions(train_ds)
    if not parts:
        raise ValueError("no users left after filtering and splitting")
    users = trainable_users(parts.values())  # fail before the log is opened
    cfg = TrainConfig(
        learning_rate=args.lr,
        block_size=args.block,
        chain_steps_per_update=args.chain_steps,
        epochs=args.epochs,
        n_hidden=args.hidden,
        seed=args.seed,
        l2=args.l2,
    )
    with _output(args.log) as log_fh:
        print(f"# osmrank train seed={args.seed} users={len(parts)} "
              f"items={train_ds.n_items} hidden={args.hidden}", file=log_fh)

        def log_block(rec):
            print(
                f"epoch={rec['epoch']} block={rec['block']} n_users={rec['n_users']} "
                f"disagreement={rec['disagreement']:.6f}",
                file=log_fh,
            )

        params = train(users, cfg, callback=log_block)
    save_checkpoint(args.out, params)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    metric_names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    parse_metrics(metric_names)  # fail before reading the ratings
    train_ds, test_ds = _prepped_split(args)
    # score every model before writing anything
    reports = []
    for model_path in args.model:
        params = load_checkpoint(model_path)
        if params.n_items != train_ds.n_items:
            raise ValueError(
                f"{model_path}: checkpoint has {params.n_items} items, data has {train_ds.n_items}"
            )
        reports.append((model_path, params.n_hidden,
                        evaluate_ranking(params, train_ds, test_ds, metric_names)))
    sweep_rows = []
    with _output(args.out) as out:
        print(f"# osmrank eval seed={args.seed} data={args.data}", file=out)
        for model_path, k, report in reports:
            for name in metric_names:
                stats = report["metrics"][name]
                t_part = f" T={name.split('@', 1)[1]}" if "@" in name else ""
                print(
                    f"model={model_path} K={k} metric={name}{t_part} "
                    f"mean={stats['mean']:.6f} stderr={stats['stderr']:.6f} "
                    f"n_users={report['n_users']}",
                    file=out,
                )
                sweep_rows.append((k, name, stats["mean"], stats["stderr"], report["n_users"]))
    if args.per_user:
        # one header per model, each followed by that model's rows
        with open(args.per_user, "w") as fh:
            for model_path, _, report in reports:
                print(f"# per-user metrics model={model_path} seed={args.seed}", file=fh)
                for row in range(report["n_users"]):
                    vals = " ".join(
                        f"{name}={report['metrics'][name]['per_user'][row]:.6f}"
                        for name in metric_names
                    )
                    print(f"user_row={row} {vals}", file=fh)
    if args.sweep_out:
        # plot-ready metric-vs-hidden-size table
        with open(args.sweep_out, "w") as fh:
            print("K\tmetric\tmean\tstderr\tn_users", file=fh)
            for k, name, mean, stderr, n_users in sorted(sweep_rows):
                print(f"{k}\t{name}\t{mean:.6f}\t{stderr:.6f}\t{n_users}", file=fh)
    return EXIT_OK


def _model_from_flags(args):
    """The --model checkpoint's latent model, or uniform potentials over --n objects."""
    if args.model:
        return load_checkpoint(args.model)
    return uniform_pair_model(args.n)


def cmd_sample(args) -> int:
    model = _model_from_flags(args)
    n = model.n_objects
    cfg = SamplerConfig(steps=args.steps, burn_in=args.burn_in, thin=args.thin, seed=args.seed)
    burn = cfg.resolved_burn_in()
    with _output(args.out) as out:
        print(f"# osmrank sample seed={cfg.seed} steps={cfg.steps} "
              f"burn_in={burn} thin={cfg.thin}", file=out)
        # --model steps are Gibbs sweeps, --uniform steps single MH moves;
        # seeded dumps of both depend on it
        if args.model:
            rng = random.Random(cfg.seed)
            X = OrderedPartition.singletons(n)
            for sweep in range(1, cfg.steps + 1):
                X, _ = gibbs_mh_step(X, model, rng)
                if sweep > burn and (sweep - burn) % cfg.thin == 0:
                    print(format_partition(X), file=out)
        else:
            samples, _ = run_chain(OrderedPartition.singletons(n), model, cfg)
            for X in samples:
                print(format_partition(X), file=out)
    return EXIT_OK


def cmd_estimate_z(args) -> int:
    model = _model_from_flags(args)
    cfg = AISConfig(
        n_temperatures=args.n_temps,
        n_runs=args.n_runs,
        schedule=args.schedule,
        inner_steps=args.inner_steps,
        seed=args.seed,
    )
    result = ais_log_z(model, cfg)
    with _output(args.out) as out:
        print(f"# osmrank estimate-z seed={args.seed}", file=out)
        print(f"log_z={result.log_z_estimate!r}", file=out)
        print(f"log_z0={result.log_z0!r}", file=out)
        print(f"ess={result.effective_sample_size!r}", file=out)
        print(f"n_runs={cfg.n_runs} n_temperatures={cfg.n_temperatures} schedule={cfg.schedule}",
              file=out)
        for r, lw in enumerate(result.log_weights.tolist()):
            print(f"run={r} log_weight={lw!r}", file=out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    with _output(args.out) as out:
        if args.count:
            print(fubini(args.n), file=out)
        if args.enumerate:
            for X in enumerate_ordered_partitions(args.n, cap=args.cap):
                print(format_partition(X), file=out)
        if args.exact_z or args.marginals:
            model = _model_from_flags(args)
            if model.n_objects != args.n:
                raise ValueError(f"model covers {model.n_objects} objects, --n is {args.n}")
            if args.exact_z:
                print(f"log_z={exact_log_z(model, cap=args.cap)!r}", file=out)
            if args.marginals:
                states, probs = exact_distribution(model, cap=args.cap)
                order_marg = np.zeros((args.n, args.n))
                tie_marg = np.zeros((args.n, args.n))
                for X, p in zip(states, probs):
                    ranks = X.block_of()
                    for i in range(args.n):
                        for j in range(i + 1, args.n):
                            if ranks[i] == ranks[j]:
                                tie_marg[i, j] += p
                            elif ranks[i] < ranks[j]:
                                order_marg[i, j] += p
                            else:
                                order_marg[j, i] += p
                for i in range(args.n):
                    for j in range(args.n):
                        if i != j:
                            print(f"order i={i} j={j} p={float(order_marg[i, j])!r}", file=out)
                for i in range(args.n):
                    for j in range(i + 1, args.n):
                        print(f"tie i={i} j={j} p={float(tie_marg[i, j])!r}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="osmrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit the latent ranking model", parents=[])
    _add_data_flags(p_train)
    p_train.add_argument("--hidden", type=_non_negative_int, default=10,
                         help="number of hidden units K")
    p_train.add_argument("--lr", type=_number(float, 0.0, strict=True), default=0.01)
    p_train.add_argument("--block", type=_positive_int, default=100, help="users per parameter update")
    p_train.add_argument("--chain-steps", type=_positive_int, default=1,
                         help="sweeps per chain per block")
    p_train.add_argument("--epochs", type=_non_negative_int, default=1)
    p_train.add_argument("--l2", type=_number(float, 0.0), default=0.0)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--log", default=None, help="training log path (default stdout)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="rank-completion metrics on the test split")
    _add_data_flags(p_eval)
    p_eval.add_argument("--model", required=True, nargs="+", help="checkpoint path(s)")
    p_eval.add_argument("--metrics", default="ndcg@5,err",
                        help="comma list: ndcg@T and/or err")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--per-user", default=None, help="per-user detail file")
    p_eval.add_argument("--sweep-out", default=None,
                        help="tab-separated metric-vs-K table (useful with several --model)")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw ordered partitions from a model")
    src = p_sample.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", default=None, help="checkpoint path")
    src.add_argument("--uniform", action="store_true", help="uniform potentials")
    p_sample.add_argument("--n", type=_positive_int, default=None,
                          help="object count for --uniform")
    p_sample.add_argument("--steps", type=_non_negative_int, required=True)
    p_sample.add_argument("--burn-in", type=_non_negative_int, default=None)
    p_sample.add_argument("--thin", type=_positive_int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_z = sub.add_parser("estimate-z", help="AIS estimate of the partition function")
    src = p_z.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", default=None)
    src.add_argument("--uniform", action="store_true")
    p_z.add_argument("--n", type=_positive_int, default=None)
    p_z.add_argument("--n-temps", type=_number(int, 2), default=1000)
    p_z.add_argument("--n-runs", type=_positive_int, default=10)
    p_z.add_argument("--schedule", default="linear", choices=["linear", "geometric"])
    p_z.add_argument("--inner-steps", type=_non_negative_int, default=None)
    p_z.add_argument("--seed", type=int, default=0)
    p_z.add_argument("--out", default=None)
    p_z.set_defaults(func=cmd_estimate_z)

    p_oracle = sub.add_parser("oracle", help="exact counting/enumeration/Z utilities")
    p_oracle.add_argument("--n", type=_non_negative_int, required=True)
    p_oracle.add_argument("--cap", type=_non_negative_int, default=8)
    p_oracle.add_argument("--count", action="store_true", help="print fubini(n)")
    p_oracle.add_argument("--enumerate", action="store_true")
    p_oracle.add_argument("--exact-z", action="store_true")
    p_oracle.add_argument("--marginals", action="store_true")
    p_oracle.add_argument("--model", default=None, help="checkpoint for exact-z/marginals")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "uniform", False) and args.n is None:
        parser.error(f"{args.command} --uniform requires --n")
    if args.command == "oracle" and not (args.count or args.enumerate or args.exact_z or args.marginals):
        parser.error("oracle needs one of --count, --enumerate, --exact-z, --marginals")
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"osmrank: warning: {message}\n"
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"osmrank: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:  # a size that no allocation can hold
        print(f"osmrank: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"osmrank: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
