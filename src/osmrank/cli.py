"""Command-line driver: training, evaluation, sampling, partition-function
estimation, and exact oracle utilities.

Exit codes: 0 success, 1 usage error, 2 data error, 3 size cap exceeded.
Outputs: each result file is claimed before any work; a failed run removes those it created.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import sys
import warnings
from typing import Optional

from .combinatorics import (
    EnumerationCapError,
    OrderedPartition,
    enumerate_ordered_partitions,
    format_partition,
    fubini,
)
from .latent import gibbs_mh_step
from .learning import CFParams, TrainConfig, load_checkpoint, save_checkpoint, train, trainable_users
from .partition_function import AISConfig, ais_log_z, check_exact_terms, exact_inference
from .pipeline import (
    DEFAULT_GRADES,
    DEFAULT_SCALE,
    SplitSpec,
    entropy_filter,
    evaluate_ranking,
    grade_ratings,
    load_ratings,
    parse_metrics,
    train_test_split,
    user_partitions,
)
from .sampler import SamplerConfig, advance_partition

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


def _output(path: Optional[str]):
    """The file at ``path``, opened for writing and closed on exit, or stdout."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# Each file flag and its role, the outputs first.  main claims every result
# before the command runs and removes those this run created if it fails; train
# opens its progress log after its checks and keeps it; an input is only read.
FILE_ROLES = {"out": "result", "per_user": "result", "sweep_out": "result", "log": "log",
              "data": "input", "model": "input"}


def _named_files(args) -> list[tuple[str, str, str]]:
    """``(flag, role, path)`` for each file ``args`` names, in ``FILE_ROLES`` order."""
    given = {flag: getattr(args, flag, None) for flag in FILE_ROLES}
    return [("--" + flag.replace("_", "-"), FILE_ROLES[flag], path) for flag, value in given.items()
            for path in (value if isinstance(value, list) else [value]) if path]  # eval's --model is a list


@contextlib.contextmanager
def _claimed(paths: list[str]):
    """Open each path for appending, which writes nothing, before the body
    runs; if an open or the body fails, remove the paths this run created.
    An existing FIFO, socket or device is not opened here, only by the write."""
    new = [os.path.realpath(path) for path in paths if not os.path.exists(path)]  # a dangling link's target too
    try:
        for path in paths:
            if not os.path.exists(path) or os.path.isfile(path) or os.path.isdir(path):
                open(path, "a").close()  # a directory fails here
        yield
    except BaseException:
        for path in filter(os.path.lexists, new):
            os.remove(path)
        raise


def _refuse_shared_files(parser: argparse.ArgumentParser, named: list[tuple[str, str, str]]) -> None:
    """A usage error for one file in two roles: two outputs, or an output and
    ``--data`` or a ``--model``.  One file is one real path, or one existing
    file under two names."""
    n_outputs = sum(role != "input" for _, role, _ in named)
    for i, (flag, _, path) in enumerate(named[:n_outputs]):
        for other, _, path2 in named[i + 1:]:  # the later outputs, then the inputs
            with contextlib.suppress(OSError, ValueError):  # a missing file; a NUL, which open() reports
                if os.path.realpath(path) == os.path.realpath(path2) or os.path.samefile(path, path2):
                    parser.error(f"{flag} and {other} name one file: {path2}")


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
    p.add_argument("--scale", type=float, nargs=2, default=DEFAULT_SCALE, metavar=("LO", "HI"))
    p.add_argument("--grades", type=_positive_int, default=DEFAULT_GRADES)
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
    users = trainable_users(parts.values())  # fail before the log opens
    cfg = TrainConfig(learning_rate=args.lr, block_size=args.block, chain_steps_per_update=args.chain_steps,
                      epochs=args.epochs, n_hidden=args.hidden, seed=args.seed, l2=args.l2)
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
    metrics = parse_metrics(args.metrics.split(","))  # fail before reading the ratings
    train_ds, test_ds = _prepped_split(args)
    # score every model before writing anything
    reports = []
    for model_path in args.model:
        params = load_checkpoint(model_path)
        if params.n_items != train_ds.n_items:
            raise ValueError(
                f"{model_path}: checkpoint has {params.n_items} items, data has {train_ds.n_items}"
            )
        reports.append((model_path, params.n_hidden, evaluate_ranking(params, train_ds, test_ds, metrics)))
    sweep_rows = []
    with _output(args.out) as out:
        print(f"# osmrank eval seed={args.seed} data={args.data}", file=out)
        for model_path, k, report in reports:
            for name in metrics:
                stats = report["metrics"][name]
                t_part = f" T={name.split('@', 1)[1]}" if "@" in name else ""
                print(f"model={model_path} K={k} metric={name}{t_part} mean={stats['mean']:.6f} "
                      f"stderr={stats['stderr']:.6f} n_users={report['n_users']}", file=out)
                sweep_rows.append((k, name, stats["mean"], stats["stderr"], report["n_users"]))
    if args.per_user:
        # one header per model, each followed by that model's rows; "%.6f"
        # formats a float as ":.6f" does
        row_format = " ".join(["user_row=%d", *(f"{name}=%.6f" for name in metrics)])
        lines = []
        for model_path, _, report in reports:
            lines.append(f"# per-user metrics model={model_path} seed={args.seed}")
            columns = [report["metrics"][name]["per_user"].tolist() for name in metrics]
            lines.extend(row_format % (row, *vals) for row, vals in enumerate(zip(*columns)))
        with open(args.per_user, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    if args.sweep_out:
        # plot-ready metric-vs-hidden-size table
        with open(args.sweep_out, "w") as fh:
            print("K\tmetric\tmean\tstderr\tn_users", file=fh)
            for k, name, mean, stderr, n_users in sorted(sweep_rows):
                print(f"{k}\t{name}\t{mean:.6f}\t{stderr:.6f}\t{n_users}", file=fh)
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser, count) -> None:
    """``--model`` and ``--n``, with ``count`` the type of ``--n``: the
    model is the checkpoint or else the uniform one over ``--n`` objects."""
    p.add_argument("--model", default=None, help="checkpoint path (default: the uniform model)")
    p.add_argument("--n", type=count, default=None,
                   help="object count: the uniform model's, or the one --model must cover")


def _checkpoint(args) -> Optional[CFParams]:
    """The --model checkpoint, which must cover --n objects where --n is
    given; None without --model, whose model is then the uniform one over
    --n objects, ``CFParams.zeros(args.n, 0)``."""
    if not args.model:
        return None
    model = load_checkpoint(args.model)
    if args.n is not None and model.n_objects != args.n:
        raise ValueError(f"model covers {model.n_objects} objects, --n is {args.n}")
    return model


def cmd_sample(args) -> int:
    """Burn in, then print a sample every ``--thin`` steps as it is drawn.  A
    ``--model`` step is one Gibbs sweep and a step of the uniform model (only
    ``--n``) one MH move; the seeded dumps depend on that.  Steps after the
    last sample are not run."""
    model = _checkpoint(args) or CFParams.zeros(args.n, 0)
    cfg = SamplerConfig(steps=args.steps, burn_in=args.burn_in, thin=args.thin, seed=args.seed)
    rng = random.Random(cfg.seed)
    if args.model:
        def advance(X: OrderedPartition, steps: int) -> OrderedPartition:
            for _ in range(steps):
                logom, gathered = model.unit_weights([X])
                X, _ = gibbs_mh_step(X, model, logom[0].tolist(), gathered[0], rng)
            return X
    else:
        local = model.split_ratio(range(model.n_objects))  # the uniform model's worths, all 0

        def advance(X: OrderedPartition, steps: int) -> OrderedPartition:
            return advance_partition(X, local, rng, steps)
    burn = min(cfg.resolved_burn_in(), cfg.steps)
    with _output(args.out) as out:
        print(f"# osmrank sample seed={cfg.seed} steps={cfg.steps} "
              f"burn_in={cfg.resolved_burn_in()} thin={cfg.thin}", file=out)
        X = advance(OrderedPartition.singletons(model.n_objects), burn)
        for _ in range((cfg.steps - burn) // cfg.thin):
            X = advance(X, cfg.thin)
            print(format_partition(X), file=out)
    return EXIT_OK


def cmd_estimate_z(args) -> int:
    model = _checkpoint(args) or CFParams.zeros(args.n, 0)
    cfg = AISConfig(n_temperatures=args.n_temps, n_runs=args.n_runs, schedule=args.schedule,
                    inner_steps=args.inner_steps, seed=args.seed)
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


def _decimal(value: int) -> str:
    """``str(value)`` past the interpreter's limit on the digits of an
    int-to-str conversion (4300 by default since Python 3.11)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_oracle(args) -> int:
    """Print the requested lines in flag order.  The model is loaded and both
    size bounds are checked first, before the uniform model is built;
    ``--exact-z`` and ``--marginals`` come from one ``exact_inference`` run,
    made before anything is written."""
    model = _checkpoint(args)
    n, k = (args.n, 0) if model is None else (model.n_objects, model.n_hidden)
    listing = enumerate_ordered_partitions(n) if args.enumerate else ()
    if args.exact_z or args.marginals:
        check_exact_terms(n, k)
        log_z, order, tie = exact_inference(model or CFParams.zeros(n, 0))
    with _output(args.out) as out:
        if args.count:
            print(_decimal(fubini(n)), file=out)
        if args.enumerate:
            for X in listing:
                print(format_partition(X), file=out)
        if args.exact_z:
            print(f"log_z={log_z!r}", file=out)
        if args.marginals:
            for i in range(n):
                for j in range(n):
                    if i != j:
                        print(f"order i={i} j={j} p={float(order[i, j])!r}", file=out)
            for i in range(n):
                for j in range(i + 1, n):
                    print(f"tie i={i} j={j} p={float(tie[i, j])!r}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="osmrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit the latent ranking model", parents=[])
    _add_data_flags(p_train)
    p_train.add_argument("--hidden", type=_non_negative_int, default=TrainConfig.n_hidden,
                         help="number of hidden units K")
    p_train.add_argument("--lr", type=_number(float, 0.0, strict=True), default=TrainConfig.learning_rate)
    p_train.add_argument("--block", type=_positive_int, default=TrainConfig.block_size,
                         help="users per parameter update")
    p_train.add_argument("--chain-steps", type=_positive_int, default=TrainConfig.chain_steps_per_update,
                         help="sweeps per chain per block")
    p_train.add_argument("--epochs", type=_non_negative_int, default=TrainConfig.epochs)
    p_train.add_argument("--l2", type=_number(float, 0.0), default=TrainConfig.l2)
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
    _add_model_flags(p_sample, _positive_int)
    p_sample.add_argument("--steps", type=_non_negative_int, required=True)
    p_sample.add_argument("--burn-in", type=_non_negative_int, default=None)
    p_sample.add_argument("--thin", type=_positive_int, default=SamplerConfig.thin)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_z = sub.add_parser("estimate-z", help="AIS estimate of the partition function")
    _add_model_flags(p_z, _positive_int)
    p_z.add_argument("--n-temps", type=_number(int, 2), default=1000)
    p_z.add_argument("--n-runs", type=_positive_int, default=10)
    p_z.add_argument("--schedule", default=AISConfig.schedule, choices=["linear", "geometric"])
    p_z.add_argument("--inner-steps", type=_non_negative_int, default=None)
    p_z.add_argument("--seed", type=int, default=0)
    p_z.add_argument("--out", default=None)
    p_z.set_defaults(func=cmd_estimate_z)

    p_oracle = sub.add_parser("oracle", help="exact counting/enumeration/Z utilities")
    _add_model_flags(p_oracle, _non_negative_int)
    p_oracle.add_argument("--count", action="store_true", help="print fubini(n)")
    p_oracle.add_argument("--enumerate", action="store_true")
    p_oracle.add_argument("--exact-z", action="store_true")
    p_oracle.add_argument("--marginals", action="store_true")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "n" in vars(args) and args.n is None and args.model is None:
        parser.error(f"{args.command} needs --model or --n")
    if args.command == "oracle" and not (args.count or args.enumerate or args.exact_z or args.marginals):
        parser.error("oracle needs one of --count, --enumerate, --exact-z, --marginals")
    named = _named_files(args)
    _refuse_shared_files(parser, named)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"osmrank: warning: {message}\n"
    try:
        with _claimed([path for _, role, path in named if role == "result"]):
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


def entry() -> None:
    """The ``osmrank`` program (``python -m osmrank.cli`` too): ``main`` on
    the command line, then a flush of stdout and stderr and ``os._exit`` with
    its code, skipping the interpreter's teardown (every output file is
    already closed by its ``with`` block).  A stdout closed at that flush is
    a broken pipe, as one inside ``main`` is: one message line and exit 2."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"osmrank: {exc}", file=sys.stderr)
        code = EXIT_DATA
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
