import argparse
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from osmrank.cli import build_parser, main
from osmrank.combinatorics import fubini
from osmrank.learning import load_checkpoint

from oracles import parse_partition


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


class TestNumericFlags:
    """A missing or out-of-range numeric flag is a usage error (exit 1)."""

    CASES = {
        "sample-uniform-without-n": ["sample", "--uniform", "--steps", "3"],
        "estimate-z-one-temperature": ["estimate-z", "--uniform", "--n", "3", "--n-temps", "1"],
        "estimate-z-zero-runs": ["estimate-z", "--uniform", "--n", "3", "--n-runs", "0"],
        "estimate-z-negative-inner-steps": ["estimate-z", "--uniform", "--n", "3",
                                            "--n-temps", "2", "--inner-steps", "-3"],
        "sample-zero-thin": ["sample", "--uniform", "--n", "3", "--steps", "5", "--thin", "0"],
        "sample-negative-steps": ["sample", "--uniform", "--n", "3", "--steps", "-1"],
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
        "oracle-negative-cap": ["oracle", "--n", "3", "--enumerate", "--cap", "-1"],
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

    def test_cap_exceeded_exit_code(self, capsys):
        assert main(["oracle", "--n", "12", "--enumerate"]) == 3
        err = capsys.readouterr().err
        assert str(fubini(12)) in err

    def test_cap_override(self, capsys):
        assert main(["oracle", "--n", "3", "--enumerate", "--cap", "2"]) == 3

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
    def test_uniform_dump_format_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        args = ["sample", "--uniform", "--n", "4", "--steps", "500", "--seed", "9"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = [ln for ln in out_a.read_text().splitlines() if not ln.startswith("#")]
        assert lines
        for ln in lines:
            X = parse_partition(ln, 4)
            assert X.covers_universe()

    def test_uniform_needs_positive_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--uniform", "--n", "0", "--steps", "5"])
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
        main(["sample", "--uniform", "--n", "3", "--steps", "100", "--seed", "5",
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
            assert parse_partition(ln, n_items).covers_universe()


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
    def test_degenerate_uniform_equals_log_fubini(self, tmp_path):
        out = tmp_path / "z.txt"
        assert main(["estimate-z", "--uniform", "--n", "5", "--n-temps", "2",
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

    def test_reports_runs(self, tmp_path):
        out = tmp_path / "z.txt"
        main(["estimate-z", "--uniform", "--n", "3", "--n-temps", "50",
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
        argv = ["estimate-z", "--model", str(ck), "--n-temps", "2", "--n-runs", "1", "--out", str(out)]
        argv[argv.index(flag) + 1] = str(10**17)
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


class TestTrainOutput:
    def test_no_trainable_users_writes_nothing(self, tmp_path, capsys):
        data = make_ratings_file(tmp_path / "r.dat")
        log, ck = tmp_path / "t.log", tmp_path / "m.ck"
        assert main(["train", "--data", data, "--n-train", "1", "--min-ratings", "11",
                     "--out", str(ck), "--log", str(log)]) == 2
        assert "no trainable users" in capsys.readouterr().err
        assert not log.exists() and not ck.exists()


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
