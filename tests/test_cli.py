import argparse
import ast
import contextlib
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from osmrank import cli
from osmrank.cli import build_parser, main
from osmrank.combinatorics import EXACT_TERMS, fubini
from osmrank.learning import CFParams, load_checkpoint, save_checkpoint

from oracles import covers_universe, parse_partition
from test_partition_function import enumerated_marginals


def make_ratings_file(path, n_users=60, n_items=40, seed=0):
    """Synthetic half-star ratings with enough disagreement to survive the
    entropy filter."""
    rng = random.Random(seed)
    scale = [0.5 * k for k in range(1, 11)]
    with open(path, "w") as fh:
        for u in range(n_users):
            shift = rng.randrange(3)
            for it in range(n_items):
                r = scale[min(9, (it + shift * 3) % 10)] if it % 2 else rng.choice(scale)
                fh.write(f"{u}::{it}::{r}::{1000 + u}\n")
    return str(path)


class TestImportHygiene:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, osmrank.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


def main_without_warnings(argv):
    """``main(argv)``, asserting that it issued no warning: pytest records
    warnings itself, so they would not reach the captured stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


class TestProgramEntry:
    """``python -m osmrank.cli`` runs ``entry``: ``main``, then a flush of
    stdout and stderr and ``os._exit``.  The exit codes, the one-line
    messages and the outputs stay those of ``main`` in process, and a stdout
    closed before the final flush is a broken pipe: one line, exit 2."""

    def command(self, argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered, as on a pipe
        env["PYTHONPATH"] = src
        return [sys.executable, "-m", "osmrank.cli", *argv], env

    def run(self, argv, cwd):
        args, env = self.command(argv)
        return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)

    def test_success_writes_complete_outputs(self, tmp_path, monkeypatch, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        train = ["train", "--data", data, "--hidden", "2", "--out", "m.ck", "--log", "train.log"]
        enumerate_ = ["oracle", "--n", "4", "--enumerate"]
        for name in ("program", "in-process"):
            (tmp_path / name).mkdir()
        done = self.run(train, tmp_path / "program")
        assert (done.returncode, done.stdout, done.stderr) == (0, "checkpoint written to m.ck\n", "")
        listed = self.run(enumerate_, tmp_path / "program")
        assert (listed.returncode, listed.stderr) == (0, "")
        assert len(listed.stdout.splitlines()) == fubini(4)
        monkeypatch.chdir(tmp_path / "in-process")
        assert main(train) == 0 and main(enumerate_) == 0
        assert capsys.readouterr().out == done.stdout + listed.stdout
        for name in ("m.ck", "train.log"):
            assert (tmp_path / "program" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes()

    @pytest.mark.parametrize("argv,code,message", [
        (["sample", "--steps", "3"], 1, "osmrank: error: sample needs --model or --n"),
        (["estimate-z", "--model", "missing.ck"], 2,
         "osmrank: [Errno 2] No such file or directory: 'missing.ck'"),
        (["oracle", "--n", "9", "--enumerate"], 3,
         "osmrank: enumeration of n=9 refused: fubini(n) states exceed the bound 4782969"),
    ])
    def test_errors_keep_their_code_and_one_message_line(self, argv, code, message, tmp_path):
        done = self.run(argv, tmp_path)
        assert done.returncode == code and done.stdout == ""
        err = done.stderr.splitlines()
        assert err[-1] == message
        assert [line for line in err if line.startswith("osmrank:")] == [message]  # a usage error prints usage first

    @pytest.mark.parametrize("n", [3, 7])
    def test_closed_stdout_is_one_broken_pipe_line(self, n, tmp_path):
        # n = 3 lists 13 lines, which wait in the buffer until the flush at exit;
        # n = 7 lists 47293, so a write inside main fails first
        args, env = self.command(["oracle", "--n", str(n), "--enumerate"])
        proc = subprocess.Popen(args, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (2, "osmrank: [Errno 32] Broken pipe\n")


def readme_commands():
    """Each ``osmrank ...`` command of the ``sh`` block under the README's
    "CLI" heading, as an argv without the program name, its continuation
    lines joined."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("osmrank ")]


class TestReadmeExamples:
    """The README's usage examples parse with today's flags; none is run."""

    def test_the_usage_block_lists_every_command(self):
        commands = {argv[0] for argv in readme_commands()}
        assert commands == {"train", "eval", "sample", "estimate-z", "oracle"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_example_parses(self, argv):
        args = build_parser().parse_args(argv)
        if "n" in vars(args):  # main's one rule past argparse for the model commands
            assert args.model is not None or args.n is not None


class TestNumericFlags:
    """A missing or out-of-range numeric flag is a usage error (exit 1)."""

    CASES = {
        "sample-without-model-or-n": ["sample", "--steps", "3"],
        "estimate-z-without-model-or-n": ["estimate-z", "--n-temps", "2"],
        "oracle-without-model-or-n": ["oracle", "--count"],
        "estimate-z-one-temperature": ["estimate-z", "--n", "3", "--n-temps", "1"],
        "estimate-z-zero-runs": ["estimate-z", "--n", "3", "--n-runs", "0"],
        "estimate-z-negative-inner-steps": ["estimate-z", "--n", "3",
                                            "--n-temps", "2", "--inner-steps", "-3"],
        "sample-zero-thin": ["sample", "--n", "3", "--steps", "5", "--thin", "0"],
        "sample-negative-steps": ["sample", "--n", "3", "--steps", "-1"],
        "train-zero-block": ["train", "--data", "{data}", "--out", "{out}", "--block", "0"],
        "train-zero-grades": ["train", "--data", "{data}", "--out", "{out}", "--grades", "0"],
        "eval-zero-grades": ["eval", "--data", "{data}", "--model", "{out}", "--grades", "0"],
        "train-negative-epochs": ["train", "--data", "{data}", "--out", "{out}", "--epochs", "-1"],
        "train-zero-chain-steps": ["train", "--data", "{data}", "--out", "{out}",
                                   "--chain-steps", "0"],
        "train-negative-hidden": ["train", "--data", "{data}", "--out", "{out}", "--hidden", "-1"],
        "train-zero-n-train": ["train", "--data", "{data}", "--out", "{out}", "--n-train", "0"],
        "eval-zero-n-train": ["eval", "--data", "{data}", "--model", "{out}", "--n-train", "0"],
        "train-negative-min-ratings": ["train", "--data", "{data}", "--out", "{out}",
                                       "--min-ratings", "-1"],
        "oracle-negative-n": ["oracle", "--n", "-1", "--count"],
        "train-negative-lr": ["train", "--data", "{data}", "--out", "{out}", "--lr", "-1"],
        "train-zero-lr": ["train", "--data", "{data}", "--out", "{out}", "--lr", "0"],
        "train-nan-lr": ["train", "--data", "{data}", "--out", "{out}", "--lr", "nan"],
        "train-infinite-lr": ["train", "--data", "{data}", "--out", "{out}", "--lr", "inf"],
        "train-negative-l2": ["train", "--data", "{data}", "--out", "{out}", "--l2", "-5"],
        "train-nan-l2": ["train", "--data", "{data}", "--out", "{out}", "--l2", "nan"],
        "train-infinite-l2": ["train", "--data", "{data}", "--out", "{out}", "--l2", "inf"],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_is_usage_error(self, case, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        argv = [a.format(data=data, out=tmp_path / "m.ck") for a in self.CASES[case]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert "error:" in err[-1]
        assert not (tmp_path / "m.ck").exists()

    def test_only_seeds_take_plain_int(self):
        plain = []
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command, sub in action.choices.items():
                    plain += [f"{command} {opt.option_strings[0]}" for opt in sub._actions
                              if opt.type is int and opt.dest != "seed"]
        assert plain == []

    def test_only_scale_takes_plain_float(self):
        # --scale stays a data error: TestNonFiniteRatings pins its exit code
        plain = []
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command, sub in action.choices.items():
                    plain += [f"{command} {opt.option_strings[0]}" for opt in sub._actions
                              if opt.type is float and opt.dest != "scale"]
        assert plain == []

    @pytest.mark.parametrize("flag,value", [("--lr", "0.5"), ("--l2", "0"), ("--l2", "0.1")])
    def test_float_flag_in_range_is_accepted(self, flag, value):
        args = build_parser().parse_args(["train", "--data", "r.dat", "--out", "m.ck",
                                          flag, value])
        assert getattr(args, flag[2:]) == float(value)


class TestOracleCommand:
    def test_count_n4(self, capsys):
        assert main(["oracle", "--n", "4", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "75"

    def test_enumerate_matches_count(self, capsys):
        assert main(["oracle", "--n", "3", "--enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        seen = {parse_partition(ln, 3).blocks for ln in lines}
        assert len(seen) == 13

    @pytest.mark.parametrize("with_out", [False, True])
    def test_no_action_is_usage_error(self, with_out, tmp_path, capsys):
        out = tmp_path / "o.txt"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", "3"] + (["--out", str(out)] if with_out else []))
        assert exc.value.code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 2 and err[0].startswith("usage:")
        assert "oracle needs one of --count, --enumerate, --exact-z, --marginals" in err[1]
        assert not out.exists()

    @pytest.mark.parametrize("argv,code", [
        (["--n", "15", "--count", "--exact-z"], 3),
        (["--n", "9", "--count", "--enumerate"], 3),
        (["--n", "3", "--count", "--exact-z", "--model", "four.ck"], 2),
    ])
    def test_failing_run_writes_nothing(self, argv, code, tmp_path, monkeypatch, capsys):
        # the model and both size bounds are checked before the count is written
        monkeypatch.chdir(tmp_path)
        save_checkpoint("four.ck", CFParams.zeros(4, 1))
        assert main(["oracle", *argv, "--out", "o.txt"]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("flag", ["--count", "--enumerate", "--exact-z", "--marginals"])
    @pytest.mark.parametrize("model,message", [
        ("missing.ck", "[Errno 2] No such file or directory: 'missing.ck'"),
        ("four.ck", "model covers 4 objects, --n is 7"),
    ], ids=["missing", "other-size"])
    def test_model_is_checked_for_every_line_kind(self, flag, model, message, tmp_path, monkeypatch, capsys):
        # --count and --enumerate once ignored --model, and printed for --n 7
        monkeypatch.chdir(tmp_path)
        save_checkpoint("four.ck", CFParams.zeros(4, 1))
        assert main(["oracle", "--n", "7", "--model", model, flag, "--out", "o.txt"]) == 2
        assert capsys.readouterr().err == f"osmrank: {message}\n"
        assert not (tmp_path / "o.txt").exists()

    def test_model_alone_gives_the_object_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_checkpoint("four.ck", CFParams(-0.2, np.array([0.1, -0.3, 0.5, 0.0]), np.full((4, 1), 0.2)))
        outputs = []
        for n_flag in ([], ["--n", "4"]):
            assert main(["oracle", *n_flag, "--model", "four.ck", "--count", "--enumerate", "--exact-z",
                         "--marginals"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == "75" and len(outputs[0].splitlines()) == 1 + 75 + 1 + 12 + 6

    @pytest.mark.parametrize("argv", [["--n", "100000000", "--exact-z"], ["--n", "300000000", "--marginals"],
                                      ["--n", "100000000", "--enumerate"]])
    def test_bounds_are_checked_before_the_uniform_model_is_built(self, argv, monkeypatch, capsys):
        # --exact-z built the 10^8-object model, ~0.8 GB, and --marginals at 3 10^8
        # failed to allocate it, before the bound was checked
        def refuse(*_):
            raise AssertionError("the uniform model was built")
        monkeypatch.setattr(CFParams, "zeros", staticmethod(refuse))
        assert main(["oracle", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("osmrank: ") and err.endswith(f" exceed the bound {EXACT_TERMS}\n")
        assert err.count("\n") == 1

    def test_cap_exceeded_exit_code(self, capsys):
        assert main(["oracle", "--n", "12", "--enumerate"]) == 3
        assert capsys.readouterr().err == (f"osmrank: enumeration of n=12 refused: fubini(n) states exceed "
                                           f"the bound {EXACT_TERMS}\n")

    def test_exact_z_and_marginals_share_the_cap_message(self, capsys):
        errs = []
        for flag in ["--exact-z", "--marginals"]:
            assert main(["oracle", "--n", "15", flag]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (f"osmrank: exact inference at n=15, K=0 refused: 3^n 2^K terms exceed "
                                      f"the bound {EXACT_TERMS}\n")

    @pytest.mark.parametrize("n,k", [(15, 0), (3, 20)], ids=["n-alone", "k-at-small-n"])
    def test_exact_modes_refuse_past_the_term_bound(self, n, k, tmp_path, monkeypatch, capsys):
        # 3^n 2^K past the bound, by n or by K
        monkeypatch.chdir(tmp_path)
        save_checkpoint("m.ck", CFParams.zeros(n, k))
        assert main(["oracle", "--n", str(n), "--model", "m.ck", "--exact-z", "--marginals",
                     "--out", "o.txt"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"osmrank: exact inference at n={n}, K={k} refused: ") and err.count("\n") == 1
        assert not (tmp_path / "o.txt").exists()

    def test_exact_modes_run_past_the_enumeration_cap(self, tmp_path, capsys):
        # fubini(10) states lie past the bound, and 3^10 2^3 terms inside it
        rng = np.random.default_rng(10)
        save_checkpoint(str(tmp_path / "m.ck"), CFParams(-0.4, rng.normal(0.0, 0.8, 10), rng.normal(0.0, 0.6, (10, 3))))
        assert main(["oracle", "--n", "10", "--model", str(tmp_path / "m.ck"), "--exact-z", "--marginals"]) == 0
        p = {tuple(line.split()[:3]): float(line.rsplit("=", 1)[1]) for line in capsys.readouterr().out.splitlines()}
        assert len(p) == 1 + 90 + 45
        for i in range(10):
            for j in range(i + 1, 10):
                total = p["order", f"i={i}", f"j={j}"] + p["order", f"i={j}", f"j={i}"] + p["tie", f"i={i}", f"j={j}"]
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1300, 1500])
    def test_cap_message_does_not_write_out_the_count(self, n, capsys):
        # fubini(1300) has 3693 digits, fubini(1500) more than int-to-str allows by
        # default; neither bound writes out fubini(n) or 3^n
        for flag, start in [("--exact-z", f"exact inference at n={n}, K=0 refused: "),
                            ("--marginals", f"exact inference at n={n}, K=0 refused: "),
                            ("--enumerate", f"enumeration of n={n} refused: fubini(n) states exceed ")]:
            assert main(["oracle", "--n", str(n), flag]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"osmrank: {start}")
            assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_count_past_the_int_to_str_digit_limit(self, capsys):
        # fubini(1485) has 4304 digits, past the interpreter's default limit of 4300
        limit = sys.get_int_max_str_digits()
        assert main(["oracle", "--n", "1485", "--count"]) == 0
        out = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit  # left as it was
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{fubini(1485)}\n" and len(out) == 4305
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [["--n", "2188"], ["--n", "100000000"], ["--model", "big.ck"]])
    def test_count_past_the_triangle_bound_is_refused(self, argv, tmp_path, monkeypatch, capsys):
        # n^2 past the bound, n > 3^7 = 2187: refused before fubini builds its triangle
        monkeypatch.chdir(tmp_path)
        save_checkpoint("big.ck", CFParams.zeros(2188, 0))
        monkeypatch.setattr(cli, "fubini", lambda n: pytest.fail("the triangle was built"))
        assert main(["oracle", *argv, "--count", "--out", "o.txt"]) == 3
        n = "2188" if argv[0] == "--model" else argv[1]
        assert capsys.readouterr().err == (f"osmrank: count of n={n} refused: n^2 triangle terms exceed "
                                           f"the bound {EXACT_TERMS}\n")
        assert not (tmp_path / "o.txt").exists()

    def test_count_at_the_triangle_bound_runs(self, monkeypatch, capsys):
        assert 2187**2 == EXACT_TERMS
        monkeypatch.setattr(cli, "fubini", lambda n: n + 1)
        assert main(["oracle", "--n", "2187", "--count"]) == 0
        assert capsys.readouterr().out == "2188\n"

    @pytest.mark.parametrize("n", [15, 40])
    def test_weights_past_memory_are_a_cap_error(self, n, capsys):
        # 3^n terms past the bound are refused before any table is built
        assert main(["oracle", "--n", str(n), "--exact-z"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"osmrank: exact inference at n={n}, K=0 refused: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n,k", [(1, 0), (3, 0), (6, 0), (1, 2), (4, 2), (6, 2), (5, None)])
    def test_exact_z_and_marginals_equal_the_enumeration_oracles(self, n, k, tmp_path, capsys):
        # k None: no --model, the all-zero model
        if k is None:
            model, flags = CFParams.zeros(n, 0), []
        else:
            rng = np.random.default_rng([n, k])
            save_checkpoint(str(tmp_path / "m.ck"),
                            CFParams(-0.4, rng.normal(0.0, 0.8, n), rng.normal(0.0, 0.6, (n, k))))
            model, flags = load_checkpoint(str(tmp_path / "m.ck")), ["--model", str(tmp_path / "m.ck")]
        assert main(["oracle", "--n", str(n), *flags, "--exact-z", "--marginals"]) == 0
        log_z, order, tie = enumerated_marginals(model)
        # the DP sums in another order than the enumeration: equal to 1e-12
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit("=", 1)[0] for line in lines] == (
            ["log_z"] + [f"order i={i} j={j} p" for i in range(n) for j in range(n) if i != j]
            + [f"tie i={i} j={j} p" for i in range(n) for j in range(i + 1, n)])
        got = [float(line.rsplit("=", 1)[1]) for line in lines]
        assert got[0] == pytest.approx(log_z, rel=1e-12, abs=0.0)
        want = [order[i, j] for i in range(n) for j in range(n) if i != j]
        want += [tie[i, j] for i in range(n) for j in range(i + 1, n)]
        assert got[1:] == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_exact_z_uniform(self, capsys):
        assert main(["oracle", "--n", "4", "--exact-z"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("log_z=")[1].strip())
        assert value == pytest.approx(math.log(75.0), abs=1e-12)

    def test_marginals_uniform_sum(self, capsys):
        assert main(["oracle", "--n", "3", "--marginals"]) == 0
        out = capsys.readouterr().out
        order = {}
        tie = {}
        for ln in out.strip().splitlines():
            parts = dict(kv.split("=") for kv in ln.split()[1:])
            if ln.startswith("order"):
                order[(int(parts["i"]), int(parts["j"]))] = float(parts["p"])
            elif ln.startswith("tie"):
                tie[(int(parts["i"]), int(parts["j"]))] = float(parts["p"])
        # P(i above j) + P(j above i) + P(tie) = 1 for each pair
        for i in range(3):
            for j in range(i + 1, 3):
                total = order[(i, j)] + order[(j, i)] + tie[(i, j)]
                assert total == pytest.approx(1.0, abs=1e-10)


class TestSampleCommand:
    def test_n_other_than_the_model_is_data_error(self, tmp_path, capsys):
        # --n was ignored next to --model, and 4-object partitions drawn
        ck, out = tmp_path / "four.ck", tmp_path / "dump.txt"
        save_checkpoint(str(ck), CFParams.zeros(4, 1))
        assert main(["sample", "--model", str(ck), "--n", "9", "--steps", "3", "--thin", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "osmrank: model covers 4 objects, --n is 9\n"
        assert not out.exists()
        assert main(["sample", "--model", str(ck), "--n", "4", "--steps", "3", "--out", str(out)]) == 0

    def test_uniform_dump_format_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        args = ["sample", "--n", "4", "--steps", "500", "--seed", "9"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = [ln for ln in out_a.read_text().splitlines() if not ln.startswith("#")]
        assert lines
        for ln in lines:
            X = parse_partition(ln, 4)
            assert covers_universe(X)

    def test_uniform_needs_positive_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "0", "--steps", "5"])
        assert exc.value.code == 1

    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "magic_only.ck"
        ck.write_text("osmrank-checkpoint 1\n")
        assert main(["sample", "--model", str(ck), "--steps", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truncated" in err

    def test_zero_item_checkpoint_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "empty.ck"
        ck.write_text("osmrank-checkpoint 1\nn_items 0\nK 0\nnu 0.0\nu\n")
        out = tmp_path / "dump.txt"
        assert main(["sample", "--model", str(ck), "--steps", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(ck) in err
        assert not out.exists()

    def test_header_records_seed(self, tmp_path):
        out = tmp_path / "s.txt"
        main(["sample", "--n", "3", "--steps", "100", "--seed", "5",
              "--out", str(out)])
        assert "seed=5" in out.read_text().splitlines()[0]

    def test_model_sampling(self, tmp_path):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = tmp_path / "m.ck"
        assert main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--hidden", "2", "--epochs", "1", "--seed", "1",
                     "--out", str(ck), "--log", str(tmp_path / "t.log")]) == 0
        out = tmp_path / "dump.txt"
        assert main(["sample", "--model", str(ck), "--steps", "200", "--thin", "20",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        n_items = load_checkpoint(str(ck)).n_items
        for ln in lines:
            assert covers_universe(parse_partition(ln, n_items))


class TestBoundedMemory:
    """``sample`` prints each draw as it is made and ``oracle`` keeps tables
    over subsets, not states, so the traced peak of ``main`` does not grow
    with the chain and stays small where fubini(n) is large."""

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_does_not_hold_its_draws(self, tmp_path):
        peaks = [self.traced_peak(["sample", "--n", "30", "--steps", str(steps), "--thin", "1",
                                   "--out", str(tmp_path / "s.txt")]) for steps in (2000, 20000)]
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_oracle_marginals_peak(self, tmp_path):
        # 47293 states; holding them with their features took ~39 MB, the DP's tables ~0.1 MB
        assert self.traced_peak(["oracle", "--n", "7", "--marginals", "--out", str(tmp_path / "o.txt")]) < 8 * 2**20


class TestBadCheckpoint:
    """Every unreadable checkpoint is a one-line data error naming the file."""

    GOOD = b"osmrank-checkpoint 1\nn_items 1\nK 0\nnu 0.0\nu 0.0\n"
    CASES = {
        "bad-version": GOOD.replace(b"checkpoint 1", b"checkpoint x"),
        "one-token-header": GOOD.replace(b"n_items 1", b"n_items"),
        "bad-nu": GOOD.replace(b"nu 0.0", b"nu abc"),
        "nan-nu": GOOD.replace(b"nu 0.0", b"nu nan"),
        "infinite-nu": GOOD.replace(b"nu 0.0", b"nu 1e999"),
        "non-utf8": GOOD.replace(b"u 0.0", b"u \xff0.0"),
        "magic-prefix": GOOD.replace(b"checkpoint 1", b"checkpointX 1"),
    }

    def test_good_file_loads(self, tmp_path):
        ck = tmp_path / "good.ck"
        ck.write_bytes(self.GOOD)
        assert main(["sample", "--model", str(ck), "--steps", "5", "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("case", list(CASES))
    def test_is_data_error_naming_the_file(self, case, tmp_path, capsys):
        ck = tmp_path / f"{case}.ck"
        ck.write_bytes(self.CASES[case])
        assert main(["sample", "--model", str(ck), "--steps", "5", "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"osmrank: {ck}: ")


class TestEstimateZCommand:
    def test_n_other_than_the_model_is_data_error(self, tmp_path, capsys):
        # --n was ignored next to --model, and Z estimated over 4 objects
        ck, out = tmp_path / "four.ck", tmp_path / "z.txt"
        save_checkpoint(str(ck), CFParams.zeros(4, 1))
        assert main(["estimate-z", "--model", str(ck), "--n", "7", "--n-temps", "3", "--n-runs", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "osmrank: model covers 4 objects, --n is 7\n"
        assert not out.exists()
        assert main(["estimate-z", "--model", str(ck), "--n", "4", "--n-temps", "3", "--n-runs", "1",
                     "--out", str(out)]) == 0

    def test_degenerate_uniform_equals_log_fubini(self, tmp_path):
        out = tmp_path / "z.txt"
        assert main(["estimate-z", "--n", "5", "--n-temps", "2",
                     "--n-runs", "4", "--seed", "0", "--out", str(out)]) == 0
        text = out.read_text()
        log_z = float([ln for ln in text.splitlines() if ln.startswith("log_z=")][0][6:])
        assert log_z == pytest.approx(math.log(fubini(5)), abs=1e-12)
        assert "ess=" in text
        assert "seed=0" in text

    def test_zero_item_checkpoint_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "empty.ck"
        ck.write_text("osmrank-checkpoint 1\nn_items 0\nK 0\nnu 0.0\nu\n")
        assert main(["estimate-z", "--model", str(ck), "--n-temps", "2", "--n-runs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(ck) in err

    # Checkpoints of finite parameters past the float bound, with n_items first.
    # The first six once failed in different places (an effective worth, the
    # worth of a drawn unit, a base weight, a split ratio, a unit weight) or
    # reported ess=2.0 from shifted weights; the two leaks ran to log_z=inf and
    # ess=nan with a numpy warning, and exit 0.
    PAST_THE_FLOAT_BOUND = {
        "effective-worths": (3, "K 2\nnu 1e308\nu 1e308 1e308 1e308\n" + "W 1e308 1e308\n" * 3),
        "drawn-unit-worths": (2, "K 1\nnu 0\nu 1e308 1e308\nW 1e308\nW 1e308\n"),
        "base-weights": (3, "K 1\nnu 0\nu 1e308 1e308 1e308\n" + "W 0\n" * 3),
        "split-ratios": (3, "K 1\nnu 0\nu 1e308 1e308 1e308\n" + "W 0\n" * 3),
        "unit-weights": (3, "K 1\nnu 0.0\nu 0.0 0.0 0.0\n" + "W 1e308\n" * 3),
        "ess-of-wide-weights": (2, "K 0\nnu 0\nu 1.6e308 1.6e308\n"),
        "leak-past-the-flag": (3, "K 2\nnu 0\nu 0 0 0\n" + "W 5e307 5e307\n" * 3),
        "leak-below-the-flag": (3, "K 8\nnu 0\nu 0 0 0\n" + ("W" + " 9.9e306" * 8 + "\n") * 3),
    }

    @pytest.mark.parametrize("case", list(PAST_THE_FLOAT_BOUND))
    def test_checkpoint_past_the_float_bound_is_data_error(self, case, tmp_path, capsys):
        n, body = self.PAST_THE_FLOAT_BOUND[case]
        ck = tmp_path / f"{case}.ck"
        ck.write_text(f"osmrank-checkpoint 1\nn_items {n}\n{body}")
        out = tmp_path / "out.txt"
        for argv in (["estimate-z", "--model", str(ck), "--n-temps", "3", "--n-runs", "2"],
                     ["sample", "--model", str(ck), "--steps", "30", "--thin", "5"],
                     ["oracle", "--n", str(n), "--exact-z", "--model", str(ck)]):
            assert main_without_warnings([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"osmrank: {ck}: parameters past the float bound: ")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("n_runs", [3, 10])
    def test_ess_of_equal_weights_is_the_run_count(self, n_runs, tmp_path):
        # exp(2 logsumexp(w) - logsumexp(2 w)) rounds a hair above R here
        out = tmp_path / "z.txt"
        assert main(["estimate-z", "--n", "4", "--n-temps", "3",
                     "--n-runs", str(n_runs), "--out", str(out)]) == 0
        assert f"ess={float(n_runs)!r}" in out.read_text().splitlines()

    def test_reports_runs(self, tmp_path):
        out = tmp_path / "z.txt"
        main(["estimate-z", "--n", "3", "--n-temps", "50",
              "--n-runs", "7", "--seed", "1", "--out", str(out)])
        runs = [ln for ln in out.read_text().splitlines() if ln.startswith("run=")]
        assert len(runs) == 7

    @pytest.mark.parametrize("flag", ["--n-temps", "--n-runs"])
    def test_size_past_memory_is_cap_error(self, flag, tmp_path, capsys):
        # 10**17 doubles lie past a 47-bit address space: the ladder or the
        # weight array fails at once, before any seed is drawn or worker forked
        ck = tmp_path / "ais.ck"
        ck.write_text("osmrank-checkpoint 1\nn_items 3\nK 1\nnu -0.5\nu 0.1 0.2 0.3\nW 0.1\nW 0.2\nW 0.3\n")
        out = tmp_path / "z.txt"
        # 10**19 is past numpy's largest size as well, which it reports as a ValueError
        for size in (10**17, 10**19):
            argv = ["estimate-z", "--model", str(ck), "--n-temps", "2", "--n-runs", "1", "--out", str(out)]
            argv[argv.index(flag) + 1] = str(size)
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("osmrank: ") and err.count("\n") == 1
            assert not out.exists()

    def test_run_count_past_index_size_is_cap_error(self, tmp_path, capsys):
        # 8 * 10**19 bytes do not fit a C ssize_t: refused like any size past memory
        out = tmp_path / "z.txt"
        argv = ["estimate-z", "--n", "3", "--n-temps", "2", "--n-runs", str(10**19),
                "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("osmrank: ") and err.count("\n") == 1
        assert not out.exists()


class TestTrainEvalRoundTrip:
    def test_usage_error_missing_data(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "x.ck"])
        assert exc.value.code == 1

    def test_bad_data_path_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "missing.dat"),
                     "--out", str(tmp_path / "x.ck")])
        assert code == 2

    def test_epochs_zero_checkpoint_is_reproducible_init(self, tmp_path):
        data = make_ratings_file(tmp_path / "r.dat")
        ck_a, ck_b = tmp_path / "a.ck", tmp_path / "b.ck"
        base = ["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                "--hidden", "3", "--epochs", "0", "--seed", "7",
                "--log", str(tmp_path / "t.log")]
        assert main(base + ["--out", str(ck_a)]) == 0
        assert main(base + ["--out", str(ck_b)]) == 0
        assert ck_a.read_bytes() == ck_b.read_bytes()
        params = load_checkpoint(str(ck_a))
        assert np.abs(params.u).max() <= 0.01
        assert params.nu == 0.0

    def test_train_then_eval(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = tmp_path / "m.ck"
        log = tmp_path / "train.log"
        assert main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--hidden", "2", "--epochs", "2", "--seed", "3",
                     "--out", str(ck), "--log", str(log)]) == 0
        capsys.readouterr()
        log_text = log.read_text()
        assert "disagreement=" in log_text
        assert "seed=3" in log_text

        report = tmp_path / "report.txt"
        assert main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--seed", "3", "--model", str(ck),
                     "--metrics", "ndcg@5,err", "--out", str(report)]) == 0
        text = report.read_text()
        lines = [ln for ln in text.splitlines() if ln.startswith("model=")]
        assert len(lines) == 2
        for ln in lines:
            fields = dict(kv.split("=", 1) for kv in ln.split())
            assert 0.0 < float(fields["mean"]) < 1.0
            assert int(fields["n_users"]) > 0
        assert "metric=ndcg@5 T=5" in text

    def test_eval_unknown_metric_is_data_error(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = tmp_path / "m.ck"
        main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
              "--hidden", "1", "--epochs", "0", "--seed", "0",
              "--out", str(ck), "--log", str(tmp_path / "t.log")])
        capsys.readouterr()
        code = main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--model", str(ck), "--metrics", "map@7"])
        assert code == 2

    def test_eval_empty_metric_list_is_data_error(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = tmp_path / "m.ck"
        main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
              "--hidden", "1", "--epochs", "0", "--seed", "0",
              "--out", str(ck), "--log", str(tmp_path / "t.log")])
        capsys.readouterr()
        report = tmp_path / "rep.txt"
        code = main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--model", str(ck), "--metrics", ",", "--out", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no metrics" in err

    def test_checkpoint_sweep_multiple_models(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        cks = []
        for k in (1, 2):
            ck = tmp_path / f"k{k}.ck"
            main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                  "--hidden", str(k), "--epochs", "1", "--seed", "4",
                  "--out", str(ck), "--log", str(tmp_path / "t.log")])
            cks.append(str(ck))
        capsys.readouterr()
        report = tmp_path / "sweep.txt"
        assert main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--seed", "4", "--model", *cks, "--metrics", "ndcg@5",
                     "--out", str(report)]) == 0
        lines = [ln for ln in report.read_text().splitlines() if ln.startswith("model=")]
        ks = {dict(kv.split("=", 1) for kv in ln.split())["K"] for ln in lines}
        assert ks == {"1", "2"}

    def test_per_user_file_keeps_every_model(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        cks = []
        for k in (1, 2):
            ck = tmp_path / f"k{k}.ck"
            main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                  "--hidden", str(k), "--epochs", "0", "--seed", "4",
                  "--out", str(ck), "--log", str(tmp_path / "t.log")])
            cks.append(str(ck))
        capsys.readouterr()
        common = ["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                  "--seed", "4", "--metrics", "ndcg@5", "--out", str(tmp_path / "rep.txt")]
        singles = []
        for ck in cks:
            single = tmp_path / "single.txt"
            assert main(common + ["--model", ck, "--per-user", str(single)]) == 0
            singles.append(single.read_text())
        both = tmp_path / "both.txt"
        assert main(common + ["--model", *cks, "--per-user", str(both)]) == 0
        text = both.read_text()
        assert text == singles[0] + singles[1]
        assert [ln for ln in text.splitlines() if ln.startswith("#")] == [
            f"# per-user metrics model={ck} seed=4" for ck in cks
        ]

    def test_sweep_table_output(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        cks = []
        for k in (1, 2):
            ck = tmp_path / f"k{k}.ck"
            main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                  "--hidden", str(k), "--epochs", "0", "--seed", "4",
                  "--out", str(ck), "--log", str(tmp_path / "t.log")])
            cks.append(str(ck))
        capsys.readouterr()
        sweep = tmp_path / "sweep.tsv"
        assert main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--seed", "4", "--model", *cks, "--metrics", "ndcg@5,err",
                     "--out", str(tmp_path / "rep.txt"),
                     "--sweep-out", str(sweep)]) == 0
        rows = sweep.read_text().strip().splitlines()
        assert rows[0] == "K\tmetric\tmean\tstderr\tn_users"
        assert len(rows) == 1 + 4  # two models x two metrics
        for row in rows[1:]:
            k, metric, mean, stderr, n_users = row.split("\t")
            assert int(k) in (1, 2)
            assert metric in ("ndcg@5", "err")
            assert 0.0 <= float(mean) <= 1.0


class TestEvalOutput:
    """eval checks its metric names first and writes nothing until every
    model is scored."""

    def checkpoint(self, tmp_path, data, name="m.ck", extra=()):
        ck = tmp_path / name
        assert main(["train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--hidden", "1", "--epochs", "0", "--seed", "0", *extra,
                     "--out", str(ck), "--log", str(tmp_path / "t.log")]) == 0
        return str(ck)

    def test_unknown_metric_writes_no_report(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = self.checkpoint(tmp_path, data)
        capsys.readouterr()
        report = tmp_path / "r.txt"
        code = main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--model", ck, "--metrics", "map@5", "--out", str(report)])
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("name", ["ndcg@ 5", "ndcg@+5", "ndcg@1_0", "ndcg@\u0665"])
    def test_non_canonical_truncation_writes_no_report(self, tmp_path, capsys, name):
        # int() takes inner blanks, signs, digit separators and non-ASCII digits
        data = make_ratings_file(tmp_path / "r.dat")
        ck = self.checkpoint(tmp_path, data)
        capsys.readouterr()
        report = tmp_path / "r.txt"
        code = main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                     "--model", ck, "--metrics", name, "--out", str(report)])
        assert code == 2
        assert not report.exists()
        assert capsys.readouterr().err == f"osmrank: metric {name!r}: truncation must be an integer\n"

    def test_metrics_checked_before_reading_ratings(self, tmp_path, capsys):
        code = main(["eval", "--data", str(tmp_path / "missing.dat"), "--model", "m.ck",
                     "--metrics", "ndcg@5,map@5"])
        assert code == 2
        assert "unknown metric 'map@5'" in capsys.readouterr().err

    def test_failing_second_model_writes_nothing(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        good = self.checkpoint(tmp_path, data)
        other = self.checkpoint(tmp_path, data, "all.ck", ["--keep-all-items"])
        capsys.readouterr()
        outs = {flag: tmp_path / f"{flag[2:]}.txt" for flag in ("--out", "--per-user",
                                                                "--sweep-out")}
        argv = ["eval", "--data", data, "--n-train", "5", "--min-ratings", "15",
                "--model", good, other]
        for flag, path in outs.items():
            argv += [flag, str(path)]
        assert main(argv) == 2
        assert "checkpoint has 40 items, data has 20" in capsys.readouterr().err
        assert not any(path.exists() for path in outs.values())


    def test_metric_named_in_several_spellings_is_scored_once(self, tmp_path, capsys):
        # each metric is scored once, under its canonical name, in first-named order
        data = make_ratings_file(tmp_path / "r.dat")
        ck = self.checkpoint(tmp_path, data)
        outputs = {}
        for n, metrics in enumerate(["NDCG@5,ndcg@05,ndcg@5,Err", "ndcg@5,err"]):
            files = [tmp_path / f"{name}{n}.txt" for name in ("report", "per_user", "sweep")]
            assert main(["eval", "--data", data, "--n-train", "5", "--min-ratings", "15", "--model", ck,
                         "--metrics", metrics, "--out", str(files[0]), "--per-user", str(files[1]),
                         "--sweep-out", str(files[2])]) == 0
            outputs[metrics] = [path.read_text().splitlines() for path in files]
        report, per_user, sweep = outputs["NDCG@5,ndcg@05,ndcg@5,Err"]
        assert [row.split()[2] for row in report[1:]] == ["metric=ndcg@5", "metric=err"]
        assert report[1].split()[3] == "T=5" and report[2].split()[3].startswith("mean=")
        assert {tuple(field.split("=")[0] for field in row.split()) for row in per_user[1:]} == {
            ("user_row", "ndcg@5", "err")}
        assert [row.split("\t")[1] for row in sweep[1:]] == ["err", "ndcg@5"]
        assert outputs["ndcg@5,err"] == [report, per_user, sweep]

    @pytest.mark.parametrize("bad", ["dir", "missing/x.txt"])
    @pytest.mark.parametrize("flag, others", [
        ("--out", ["--per-user", "--sweep-out"]),
        ("--per-user", ["--out", "--sweep-out"]),
        ("--sweep-out", ["--out", "--per-user"]),
        ("--per-user", ["--sweep-out"]),  # the report goes to stdout
        ("--sweep-out", ["--per-user"]),
    ], ids=["out", "per-user", "sweep-out", "per-user-stdout", "sweep-out-stdout"])
    def test_unopenable_output_writes_nothing(self, tmp_path, capsys, flag, others, bad):
        # a directory or a path in a missing directory, beside an existing file
        # and a new path, or beside stdout and a new path
        data = make_ratings_file(tmp_path / "r.dat")
        ck = self.checkpoint(tmp_path, data)
        (tmp_path / "dir").mkdir()
        (tmp_path / "kept.txt").write_text("kept\n")
        argv = ["eval", "--data", data, "--n-train", "5", "--min-ratings", "15", "--model", ck,
                flag, str(tmp_path / bad)]
        for other, name in zip(others, ["kept.txt", "new.txt"][-len(others):]):
            argv += [other, str(tmp_path / name)]

        def tree():
            return {path: (path.stat().st_mtime_ns, path.is_file() and path.read_bytes())
                    for path in tmp_path.rglob("*")}

        before = tree()
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("osmrank: [Errno ") and err.endswith(f": {str(tmp_path / bad)!r}\n")
        assert tree() == before

class TestTrainOutput:
    def test_no_trainable_users_writes_nothing(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        log, ck = tmp_path / "t.log", tmp_path / "m.ck"
        assert main(["train", "--data", data, "--n-train", "1", "--min-ratings", "11",
                     "--out", str(ck), "--log", str(log)]) == 2
        assert "no trainable users" in capsys.readouterr().err
        assert not log.exists() and not ck.exists()

    def test_update_past_the_float_bound_writes_no_checkpoint(self, tmp_path, capsys):
        # the one block of users at --lr 1e304 takes the largest |parameter| to
        # ~9.7e304, past the bound of 20 items at K = 2 (~3.7e304)
        data = make_ratings_file(tmp_path / "r.dat")
        log, ck = tmp_path / "t.log", tmp_path / "m.ck"
        assert main_without_warnings(["train", "--data", data, "--hidden", "2", "--lr", "1e304",
                                      "--out", str(ck), "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("osmrank: parameters past the float bound: ")
        assert not ck.exists()
        assert log.read_text().startswith("# osmrank train seed=0 ")  # the header, kept

    def test_unopenable_out_fails_before_training(self, tmp_path, capsys):
        # --out is claimed before --log opens: a directory fails with no log written
        data = make_ratings_file(tmp_path / "r.dat")
        (tmp_path / "dir").mkdir()
        log = tmp_path / "tlog.txt"
        capsys.readouterr()
        assert main(["train", "--data", data, "--epochs", "1", "--out", str(tmp_path / "dir"),
                     "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("osmrank: [Errno ")
        assert not log.exists()


class TestOneFileInTwoRoles:
    """One file named by two outputs, or by an output and an input, is a
    usage error found before any input is read."""

    ROLES = {  # argv with the file "same" in two roles; "./same" names it too
        "eval-out-per-user": ["eval", "--data", "r.dat", "--model", "m.ck", "--out", "same",
                              "--per-user", "./same"],
        "eval-out-sweep-out": ["eval", "--data", "r.dat", "--model", "m.ck", "--out", "same",
                               "--sweep-out", "same"],
        "eval-per-user-sweep-out": ["eval", "--data", "r.dat", "--model", "m.ck", "--per-user", "same",
                                    "--sweep-out", "./same"],
        "train-out-log": ["train", "--data", "r.dat", "--out", "same", "--log", "./same"],
        "train-out-data": ["train", "--data", "same", "--out", "./same"],
        "train-log-data": ["train", "--data", "same", "--out", "m2.ck", "--log", "same"],
        "eval-out-data": ["eval", "--data", "./same", "--model", "m.ck", "--out", "same"],
        "eval-out-model": ["eval", "--data", "r.dat", "--model", "m.ck", "same", "--out", "./same"],
        "eval-per-user-model": ["eval", "--data", "r.dat", "--model", "same", "--per-user", "same"],
        "sample-out-model": ["sample", "--model", "same", "--steps", "2", "--out", "./same"],
        "estimate-z-out-model": ["estimate-z", "--model", "same", "--n-temps", "2", "--n-runs", "1",
                                 "--out", "same"],
        "oracle-out-model": ["oracle", "--n", "20", "--exact-z", "--model", "./same", "--out", "same"],
    }

    @pytest.mark.parametrize("case", sorted(ROLES))
    @pytest.mark.parametrize("same", ["checkpoint", "ratings", "missing"])
    def test_is_usage_error(self, case, same, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        make_ratings_file(tmp_path / "r.dat")
        save_checkpoint(str(tmp_path / "m.ck"), CFParams.zeros(20, 1))
        if same != "missing":  # a checkpoint or a ratings file: either input would read it
            source = tmp_path / ("m.ck" if same == "checkpoint" else "r.dat")
            (tmp_path / "same").write_bytes(source.read_bytes())
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(self.ROLES[case])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ") and err.count("\n") == 2
        assert " name one file: " in err.splitlines()[1]
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_hard_link_is_one_file(self, tmp_path, capsys):
        ck = tmp_path / "m.ck"
        save_checkpoint(str(ck), CFParams.zeros(3, 0))
        os.link(ck, tmp_path / "link.ck")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--model", str(ck), "--steps", "2", "--out", str(tmp_path / "link.ck")])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f"--out and --model name one file: {ck}\n")


def file_tree(root):
    """Each path under ``root``: its mtime and, for a file, its bytes."""
    return {path: (path.lstat().st_mtime_ns, path.is_file() and path.read_bytes())
            for path in root.rglob("*")}


class TestOutputContract:
    """``main`` claims every result output (``--out``, ``--per-user``,
    ``--sweep-out``) before the command's work starts, and a failing run
    removes the outputs it created.  An existing FIFO is opened once, by the
    command's write."""

    # every command's work: each fails the test if it is called
    WORK = ["osmrank.cli.load_ratings", "osmrank.cli.train", "osmrank.cli.advance_partition",
            "osmrank.sampler.advance_partition", "osmrank.latent.advance_partition",
            "osmrank.cli.ais_log_z", "osmrank.cli.enumerate_ordered_partitions",
            "osmrank.cli.exact_inference"]
    COMMANDS = {
        "train": ["train", "--data", "r.dat", "--epochs", "1", "--log", "t.log"],
        "eval": ["eval", "--data", "r.dat", "--model", "m.ck", "--per-user", "pu.txt"],
        "sample": ["sample", "--n", "4", "--steps", "5"],
        "estimate-z": ["estimate-z", "--n", "60", "--n-temps", "500", "--n-runs", "1"],
        "sample-model": ["sample", "--model", "m.ck", "--steps", "5"],
        "oracle": ["oracle", "--n", "3", "--enumerate"],
        "oracle-exact": ["oracle", "--n", "3", "--exact-z", "--marginals"],
    }

    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        make_ratings_file(tmp_path / "r.dat")
        save_checkpoint("m.ck", CFParams.zeros(20, 1))

    @pytest.mark.parametrize("bad", ["dir", "missing/x.txt"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unopenable_out_fails_before_any_work(self, command, bad, tmp_path, monkeypatch, capsys):
        self.inputs(tmp_path, monkeypatch)
        (tmp_path / "dir").mkdir()
        for target in self.WORK:
            def refuse(*_, _target=target, **__):
                raise AssertionError(f"{_target} ran")
            monkeypatch.setattr(target, refuse)
        before = file_tree(tmp_path)
        capsys.readouterr()
        assert main([*self.COMMANDS[command], "--out", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("osmrank: [Errno ") and err.endswith(f": {bad!r}\n")
        assert file_tree(tmp_path) == before

    FAILING = {  # argv that fails once its outputs are claimed, and its exit code
        "train": (["train", "--data", "r.dat", "--hidden", "2", "--lr", "1e304", "--log", "t.log"], 2),
        "eval": (["eval", "--data", "r.dat", "--model", "small.ck", "--per-user", "pu.txt",
                  "--sweep-out", "sweep.txt"], 2),
        "sample": (["sample", "--model", "truncated.ck", "--steps", "5"], 2),
        "estimate-z": (["estimate-z", "--n", "3", "--n-temps", "2", "--n-runs", str(10**19)], 3),
        "oracle": (["oracle", "--n", "9", "--count", "--enumerate"], 3),
    }

    @pytest.mark.parametrize("out", ["new", "existing", "dangling-link"])
    @pytest.mark.parametrize("command", list(FAILING))
    def test_failing_run_removes_only_what_it_created(self, command, out, tmp_path, monkeypatch, capsys):
        self.inputs(tmp_path, monkeypatch)
        save_checkpoint("small.ck", CFParams.zeros(3, 1))
        (tmp_path / "truncated.ck").write_text("osmrank-checkpoint 1\n")
        if out == "existing":
            (tmp_path / "o.txt").write_text("kept\n")
        elif out == "dangling-link":  # the claim creates the link's target
            os.symlink("target.txt", "o.txt")
        before = file_tree(tmp_path)
        argv, code = self.FAILING[command]
        capsys.readouterr()
        assert main([*argv, "--out", "o.txt"]) == code
        assert capsys.readouterr().err.count("\n") == 1
        after = file_tree(tmp_path)
        if command == "train":  # the progress log keeps the blocks written
            assert after.pop(tmp_path / "t.log")[1].startswith(b"# osmrank train seed=0 ")
        assert after == before

    FIFO = {  # argv whose last flag names the output given a FIFO
        "train": ["train", "--data", "r.dat", "--hidden", "1", "--epochs", "1", "--log", "t.log", "--out"],
        "eval": ["eval", "--data", "r.dat", "--model", "m.ck", "--out", "report.txt", "--per-user"],
        "estimate-z": ["estimate-z", "--n", "5", "--n-temps", "10", "--n-runs", "2", "--out"],
    }

    @pytest.mark.parametrize("command", list(FIFO))
    def test_fifo_output_is_written_through_one_open(self, command, tmp_path, monkeypatch, capsys):
        self.inputs(tmp_path, monkeypatch)
        assert main([*self.FIFO[command], "want.txt"]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read)
        reader.start()
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        try:
            done = subprocess.run([sys.executable, "-m", "osmrank.cli", *self.FIFO[command], "fifo"],
                                  cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True, timeout=60)
        finally:
            if reader.is_alive():  # a reader no writer opened for: let it see end-of-file
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert (done.returncode, done.stderr) == (0, "")
        assert got == [(tmp_path / "want.txt").read_bytes()]

    def test_main_is_the_only_claimant(self):
        with open(cli.__file__) as fh:
            tree = ast.parse(fh.read())
        callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_claimed"}
        assert callers == {"main"}


class TestNonFiniteRatings:
    """A NaN rating or a non-finite scale bound is a data error (exit 2) with
    one line, not an IndexError traceback from the entropy filter."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", ["nan-rating", "nan-scale", "infinite-scale"])
    def test_is_data_error(self, tmp_path, capsys, command, case):
        data = make_ratings_file(tmp_path / "r.dat")
        argv = ["--data", data, "--n-train", "5", "--min-ratings", "15"]
        ck = tmp_path / "m.ck"
        assert main(["train", *argv, "--hidden", "1", "--epochs", "0",
                     "--out", str(ck), "--log", str(tmp_path / "t.log")]) == 0
        if case == "nan-rating":
            with open(data, "a") as fh:
                fh.write("1::999::nan::0\n")
        else:
            argv += ["--scale", *{"nan-scale": ["nan", "5"], "infinite-scale": ["0.5", "inf"]}[case]]
        capsys.readouterr()
        if command == "train":
            argv += ["--out", str(tmp_path / "new.ck"), "--log", str(tmp_path / "new.log")]
        else:
            argv += ["--model", str(ck)]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("non-finite rating" if case == "nan-rating" else "invalid rating scale") in err


class TestManyGrades:
    """A ``--grades`` count far above the number of distinct ratings grades
    the data as a smaller count would; only NDCG's gains 2**grade overflow."""

    ARGV = ["--n-train", "5", "--min-ratings", "15", "--hidden", "1", "--seed", "0"]

    def test_train_counts_only_the_grades_that_occur(self, tmp_path):
        # 40 items x 10**13 grades: a dense count table would exceed the address space
        data = make_ratings_file(tmp_path / "r.dat")
        for grades in ("10", str(10**13)):
            assert main(["train", "--data", data, *self.ARGV, "--grades", grades,
                         "--out", str(tmp_path / f"{grades}.ck"),
                         "--log", str(tmp_path / f"{grades}.log")]) == 0
        # both gradings give each of the 10 half-star ratings its own grade, in order
        assert (tmp_path / "10.ck").read_bytes() == (tmp_path / f"{10**13}.ck").read_bytes()

    def test_grades_beyond_int64_is_data_error(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        log, ck = tmp_path / "t.log", tmp_path / "m.ck"
        assert main(["train", "--data", data, *self.ARGV, "--grades", str(10**19),
                     "--out", str(ck), "--log", str(log)]) == 2
        assert capsys.readouterr().err == f"osmrank: n_grades must lie in 1..2**53, got {10**19}\n"
        assert not log.exists() and not ck.exists()

    def test_overflowing_ndcg_gain_is_data_error(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        ck = tmp_path / "m.ck"
        assert main(["train", "--data", data, *self.ARGV, "--epochs", "0", "--keep-all-items",
                     "--out", str(ck), "--log", str(tmp_path / "t.log")]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", data, *self.ARGV[:4], "--keep-all-items",
                     "--grades", "1100", "--metrics", "ndcg@5", "--model", str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "osmrank: NDCG gains 2**grade overflow (largest grade 1100)\n"


class TestWarnings:
    """Warnings reach stderr as one ``osmrank: warning: ...`` line each, with
    no source path and no echoed source line."""

    def run_cli(self, *argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run([sys.executable, "-m", "osmrank.cli", *argv], env=env,
                              capture_output=True, text=True)

    def test_degenerate_users(self, tmp_path):
        data = make_ratings_file(tmp_path / "r.dat")
        proc = self.run_cli("train", "--data", data, "--n-train", "1", "--min-ratings", "11",
                            "--out", str(tmp_path / "m.ck"), "--log", str(tmp_path / "t.log"))
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 2
        assert err[0].startswith("osmrank: warning: skipped ")
        assert "degenerate users" in err[0]
        assert err[1] == "osmrank: no trainable users"

    def test_duplicate_ratings(self, tmp_path):
        data = make_ratings_file(tmp_path / "r.dat")
        with open(data) as fh:
            first = fh.readline()
        with open(data, "a") as fh:
            fh.write(first)
        proc = self.run_cli("train", "--data", data, "--n-train", "5", "--min-ratings", "15",
                            "--hidden", "1", "--epochs", "0",
                            "--out", str(tmp_path / "m.ck"), "--log", str(tmp_path / "t.log"))
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "osmrank: warning: 1 duplicate (user, item) ratings; last wins"
        ]
