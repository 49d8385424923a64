import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import by_user, random_latent_model, reference_load_ratings
from oracles import from_graded_ratings, reconstruct_rank
from osmrank.combinatorics import OrderedPartition
from osmrank.core import worth_features
from osmrank.learning import CFParams, cf_latent_model
from osmrank.metrics import err, err_rows, ndcg_at, ndcg_rows
from osmrank.pipeline import (
    RankedList,
    SplitSpec,
    _ranked_test_records,
    _worth_coefficients,
    complete_rank,
    entropy_filter,
    evaluate_ranking,
    grade_ratings,
    load_ratings,
    parse_metric,
    train_test_split,
    user_partitions,
)


def write_ratings(path, rows, fmt="movielens_dcolon"):
    with open(path, "w") as fh:
        if fmt == "csv":
            fh.write("user,item,rating,timestamp\n")
        for row in rows:
            sep = "::" if fmt == "movielens_dcolon" else ","
            fh.write(sep.join(str(x) for x in row) + "\n")


class TestNdcg:
    def test_perfect_ordering_is_one(self):
        assert ndcg_at([5, 4, 3, 2, 1], 5) == pytest.approx(1.0, abs=1e-15)

    def test_hand_derived_value(self):
        # grades (0, 5) at T=2: (0 + 31/log2(3)) / 31 = 1/log2(3)
        expected = 1.0 / math.log2(3.0)
        assert ndcg_at([0, 5], 2) == pytest.approx(expected, abs=1e-12)
        assert ndcg_at([0, 5], 2) == pytest.approx(0.6309297535714574, abs=1e-12)

    def test_all_equal_grades(self):
        assert ndcg_at([3, 3, 3], 2) == 1.0
        assert ndcg_at([0, 0, 0], 3) == 1.0  # kappa = 0 convention

    def test_truncation_shorter_than_list(self):
        assert ndcg_at([5, 0, 0], 1) == 1.0
        assert ndcg_at([0, 5], 1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at([], 3)

    def test_moving_high_grade_later_never_increases(self):
        rng = random.Random(0)
        for _ in range(200):
            grades = [rng.randrange(0, 6) for _ in range(8)]
            t = rng.randrange(1, 9)
            base = ndcg_at(grades, t)
            i = rng.randrange(7)
            j = rng.randrange(i + 1, 8)
            if grades[i] > grades[j]:
                swapped = grades.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert ndcg_at(swapped, t) <= base + 1e-12

    @pytest.mark.parametrize("grades", [[1100.0, 1.0], [1023.0, 1023.0, 1023.0]])
    def test_overflowing_gain_rejected(self, grades):
        # an infinite gain, and finite gains whose discounted sum overflows
        with pytest.raises(ValueError, match="overflow"):
            ndcg_rows([grades], 5)


class TestErr:
    def test_single_top_grade(self):
        assert err([5]) == pytest.approx(15.0 / 16.0)

    def test_single_bottom_grade(self):
        assert err([1]) == 0.0

    def test_two_top_grades(self):
        assert err([5, 5]) == pytest.approx(0.966796875, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            err([0])
        with pytest.raises(ValueError):
            err([6])
        with pytest.raises(ValueError):
            err([2.5])

    def test_moving_high_grade_later_never_increases(self):
        rng = random.Random(1)
        for _ in range(200):
            grades = [rng.randrange(1, 6) for _ in range(7)]
            base = err(grades)
            i = rng.randrange(6)
            j = rng.randrange(i + 1, 7)
            if grades[i] > grades[j]:
                swapped = grades.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert err(swapped) <= base + 1e-12

    def test_value_in_unit_interval(self):
        rng = random.Random(2)
        for _ in range(100):
            grades = [rng.randrange(1, 6) for _ in range(10)]
            assert 0.0 <= err(grades) < 1.0


class TestMetricRows:
    """The row-wise metrics are the one implementation; a padded row scores
    exactly as the one-row call on its valid prefix."""

    def rows(self, seed, low):
        rng = random.Random(seed)
        lists = [[rng.randrange(low, 6) for _ in range(rng.randrange(1, 12))] for _ in range(40)]
        lengths = np.array([len(g) for g in lists])
        grades = np.full((len(lists), lengths.max()), 99.0)  # padding is ignored
        for r, g in enumerate(lists):
            grades[r, : len(g)] = g
        return lists, grades, lengths

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_ndcg_rows_equal_one_row_calls(self, t):
        lists, grades, lengths = self.rows(0, 0)
        got = ndcg_rows(grades, t, lengths)
        assert got.tolist() == [ndcg_at(g, t) for g in lists]

    def test_err_rows_equal_one_row_calls(self):
        lists, grades, lengths = self.rows(1, 1)
        assert err_rows(grades, lengths).tolist() == [err(g) for g in lists]

    def test_checks_cover_valid_entries_only(self):
        grades = np.array([[3.0, -1.0], [0.0, 6.0]])
        with pytest.raises(ValueError, match="non-negative"):
            ndcg_rows(grades, 2)
        with pytest.raises(ValueError, match="1..5"):
            err_rows(grades)
        assert ndcg_rows(grades, 2, np.array([1, 1])).tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="1..5, got 0"):
            err_rows(grades, np.array([1, 1]))
        with pytest.raises(ValueError, match="empty"):
            err_rows(grades, np.array([1, 0]))


class TestLoadRatings:
    def test_movielens_line(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 10, 4.5, 978300760)])
        ds = load_ratings(str(path))
        assert ds.n_records == 1
        assert ds.user_ids.tolist() == [1]
        assert ds.item_ids.tolist() == [10]
        assert ds.ratings.tolist() == [4.5]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("")
        ds = load_ratings(str(path))
        assert ds.n_records == 0
        assert ds.n_users == 0

    def test_duplicates_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "dup.dat"
        write_ratings(path, [(1, 10, 2.0, 1), (1, 10, 5.0, 2), (2, 10, 3.0, 3)])
        with pytest.warns(UserWarning, match="1 duplicate"):
            ds = load_ratings(str(path))
        assert ds.n_records == 2
        row = np.flatnonzero(ds.user_ids[ds.users] == 1)[0]
        assert ds.ratings[row] == 5.0

    def test_malformed_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1::10::4.5::1\nnot-a-line\n2::11::3.0::2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_ratings(str(path))

    def test_malformed_lenient_warns(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1::10::4.5::1\nnope\n")
        with pytest.warns(UserWarning):
            ds = load_ratings(str(path), strict=False)
        assert ds.n_records == 1

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ratings(path, [(1, 10, 4.0, 99), (2, 11, 2.0, 100)], fmt="csv")
        ds = load_ratings(str(path), fmt="csv")
        assert ds.n_records == 2

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_ratings("whatever", fmt="parquet")



class TestPathRead:
    """load_ratings hands numpy the path, except for names that numpy's
    DataSource would decompress or fetch; the OS reports a missing file."""

    ROWS = [(1, 10, 4.5, 1), (2, 11, 3.0, 2), (2, 10, 1.0, 3)]

    @pytest.fixture
    def no_loadtxt_on_names(self, monkeypatch):
        real = np.loadtxt

        def loadtxt(source, *args, **kwargs):
            assert not isinstance(source, str), f"np.loadtxt got the name {source!r}"
            return real(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    @pytest.mark.parametrize("fmt", ["movielens_dcolon", "csv"])
    def test_plain_text_with_a_compressed_suffix_loads(self, tmp_path, no_loadtxt_on_names, suffix, fmt):
        plain, named = tmp_path / "r.dat", tmp_path / f"r.dat{suffix}"
        write_ratings(plain, self.ROWS, fmt)
        write_ratings(named, self.ROWS, fmt)
        ds = load_ratings(str(named), fmt=fmt)
        assert ds.ratings.tolist() == [4.5, 3.0, 1.0]
        assert ds.users.tolist() == [0, 1, 1]

    def test_existing_file_named_like_a_url_is_read_through_the_handle(
        self, tmp_path, monkeypatch, no_loadtxt_on_names
    ):
        (tmp_path / "http:" / "example.invalid").mkdir(parents=True)
        write_ratings(tmp_path / "http:" / "example.invalid" / "r.dat", self.ROWS)
        monkeypatch.chdir(tmp_path)
        assert load_ratings("http://example.invalid/r.dat").n_records == 3

    def test_plain_name_is_read_from_the_path(self, tmp_path, monkeypatch):
        sources = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda source, *a, **k: sources.append(source) or real(source, *a, **k))
        write_ratings(tmp_path / "r.dat", self.ROWS)
        assert load_ratings(str(tmp_path / "r.dat")).n_records == 3
        assert load_ratings(tmp_path / "r.dat").n_records == 3  # a path object
        assert sources == [str(tmp_path / "r.dat")] * 2

    @pytest.mark.parametrize("fmt", ["movielens_dcolon", "csv"])
    def test_missing_path_is_a_data_error_naming_the_file(self, tmp_path, capsys, fmt):
        from osmrank.cli import main

        missing = str(tmp_path / "missing.dat")
        code = main(["train", "--data", missing, "--format", fmt, "--out", str(tmp_path / "x.ck")])
        assert code == 2
        assert capsys.readouterr().err == f"osmrank: [Errno 2] No such file or directory: {missing!r}\n"

    @pytest.mark.parametrize("fmt", ["movielens_dcolon", "csv"])
    def test_missing_url_like_path_never_reaches_numpy(self, monkeypatch, fmt):
        def loadtxt(*_args, **_kwargs):
            raise AssertionError("np.loadtxt was called")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(FileNotFoundError, match=r"\[Errno 2\]"):
            load_ratings("http://example.invalid/ratings.dat", fmt=fmt)

# (line, how load_ratings' verdict differs from the reference parser's)
DCOLON_CORPUS = [
    ("1::10::4.5::978300760", None),
    ("", None),
    ("   \t", None),
    (" 2 :: 11 :: 3.0 :: 5 ", None),
    ("3::12::2.5::7\r", None),  # CRLF
    ("# comment", None),
    ("4::13::1.0", None),
    ("5::14::5.0::1::extra", None),
    ("6:15:2.0:1", None),
    ("7::16::3.5:1", None),
    ("8::17::3.5:", None),
    ("-8::-17::4.0::2", None),
    ("1.5::18::3.0::1", None),
    ("1e3::19::3.0::1", None),
    ("9::1e3::3.0::1", None),
    ("10::20::1e0::1", None),
    ("11::21::4.0::bad", "accepted"),  # only the fourth field is bad
    ("12::22", None),
    ("13:::23::3.0", None),
    ("14::24::", None),
    ("15::::25::3.0", None),
    ("16::25::nan::1", None),
    ("1_7::26::3.0::1", "rejected"),  # numpy takes no digit separators
    ("18::27::+2.0::1", None),
]

CSV_CORPUS = [
    ("user,item,rating,timestamp", None),
    ("1,10,4.5,99", None),
    ("", None),
    (" 2 , 11 , 3.0 ", None),
    ("3,12,2.5,7\r", None),
    ("a,b,c", None),
    ("4,13", None),
    ("5,14,1.0,,x", "accepted"),
    ("6,15,2.0,bad", "accepted"),
    ("7;16;2.0", None),
]


class TestLoadRatingsAgainstReference:
    """Records and malformed-line verdicts match the per-line parser, but
    for the documented differences."""

    def check(self, path, fmt, differs):
        """differs: line number -> 'accepted' or 'rejected' by load_ratings
        against the reference's verdict."""
        _, old_bad = reference_load_ratings(str(path), fmt)
        records, bad = reference_load_ratings(str(path), fmt, fourth_field=False)
        # ignoring fields after the rating is the only fourth-field change
        accepted = sorted(n for n, d in differs.items() if d == "accepted")
        assert sorted(set(old_bad) - set(bad)) == accepted
        rejected = {n for n, d in differs.items() if d == "rejected"}
        bad = sorted(set(bad) | rejected)
        expected = [rec for n, rec in records.items() if n not in rejected]
        if bad:
            message = f"{path}: {len(bad)} malformed lines (first at line {bad[0]})"
            with pytest.raises(ValueError, match=re.escape(message)):
                load_ratings(str(path), fmt=fmt)
            with pytest.warns(UserWarning, match=re.escape(message)):
                ds = load_ratings(str(path), fmt=fmt, strict=False)
        else:
            ds = load_ratings(str(path), fmt=fmt)
        got = list(zip(ds.user_ids[ds.users].tolist(), ds.item_ids[ds.items].tolist(),
                       ds.ratings.tolist()))
        assert repr(got) == repr(expected)  # repr: nan == nan

    def write(self, path, corpus, newline="\n"):
        with open(path, "w", newline="") as fh:
            fh.write(newline.join(line for line, _ in corpus) + newline)
        return {n: d for n, (_, d) in enumerate(corpus, start=1) if d}

    def test_dcolon_corpus(self, tmp_path):
        path = tmp_path / "r.dat"
        self.check(path, "movielens_dcolon", self.write(path, DCOLON_CORPUS))

    def test_csv_corpus(self, tmp_path):
        path = tmp_path / "r.csv"
        self.check(path, "csv", self.write(path, CSV_CORPUS))

    def test_csv_with_blank_first_line(self, tmp_path):
        path = tmp_path / "r.csv"
        differs = self.write(path, [("", None)] + CSV_CORPUS)  # the header is now malformed
        self.check(path, "csv", differs)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_each_line_alone(self, tmp_path, newline):
        for n, (line, differ) in enumerate(DCOLON_CORPUS):
            path = tmp_path / f"line{n}.dat"
            self.write(path, [(line, differ)], newline)
            self.check(path, "movielens_dcolon", {1: differ} if differ else {})

    def test_single_colon_line_deep_in_a_large_file(self, tmp_path):
        # the odd-colon check reads the file in 64 KiB chunks: a line far
        # past the first chunk must still send the file to the per-line scan
        path = tmp_path / "r.dat"
        corpus = [(f"{n % 97}::{n}::{n % 10 / 2 + 0.5}::{n}", None) for n in range(8000)]
        corpus.insert(7000, ("7::16::3.5:1", None))
        assert sum(len(line) + 1 for line, _ in corpus[:7000]) > 2 << 16
        self.check(path, "movielens_dcolon", self.write(path, corpus))

    def test_ids_outside_int64_are_malformed(self, tmp_path):
        # Python's int takes any size, numpy's int64 does not: such a line is
        # malformed and named by its line number in the file
        path = tmp_path / "r.dat"
        corpus = [(f"{n}::{n % 50}::3.0", None) for n in range(1, 1300)]
        corpus[1199] = ("9223372036854775808::28::3.0::1", "rejected")
        corpus += [("19::-9223372036854775809::3.0", "rejected"),
                   ("9223372036854775807::-9223372036854775808::3.0", None)]
        self.check(path, "movielens_dcolon", self.write(path, corpus))

    def test_well_formed_file(self, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "r.dat"
        corpus = [(f"{rng.randrange(-5, 50)}::{rng.randrange(100)}::{rng.randrange(1, 11) / 2}"
                   f"::{rng.randrange(10**9)}", None) for _ in range(300)]
        self.write(path, corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicates: last wins on both sides
            ds = load_ratings(str(path))
        records, bad = reference_load_ratings(str(path))
        assert bad == []
        last = {}
        for position, (u, i, r) in enumerate(records.values()):
            last[(u, i)] = (position, r)
        expected = [(u, i, r) for (u, i), (_, r) in sorted(last.items(), key=lambda kv: kv[1][0])]
        got = list(zip(ds.user_ids[ds.users].tolist(), ds.item_ids[ds.items].tolist(),
                       ds.ratings.tolist()))
        assert got == expected


class TestGradeRatings:
    def test_segment_table_half_star_scale(self, tmp_path):
        path = tmp_path / "r.dat"
        ratings = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
        write_ratings(path, [(1, i, r, 0) for i, r in enumerate(ratings)])
        ds = grade_ratings(load_ratings(str(path)))
        by_item = {int(ds.items[i]): int(ds.grades[i]) for i in range(ds.n_records)}
        expected = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert [by_item[i] for i in range(10)] == expected

    def test_integer_scale_maps_identically(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, i, r, 0) for i, r in enumerate([1, 2, 3, 4, 5])])
        ds = grade_ratings(load_ratings(str(path)), scale=(1.0, 5.0))
        assert ds.grades.tolist() == [1, 2, 3, 4, 5]

    def test_monotone(self, tmp_path):
        path = tmp_path / "r.dat"
        rng = random.Random(0)
        ratings = sorted(rng.choice([0.5 * k for k in range(1, 11)]) for _ in range(50))
        write_ratings(path, [(1, i, r, 0) for i, r in enumerate(ratings)])
        ds = grade_ratings(load_ratings(str(path)))
        order = np.argsort(ds.ratings, kind="stable")
        grades = ds.grades[order]
        assert np.all(np.diff(grades) >= 0)

    def test_zero_grades_rejected(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 0, 2.5, 0)])
        with pytest.raises(ValueError, match="n_grades"):
            grade_ratings(load_ratings(str(path)), n_grades=0)

    def test_out_of_scale_rejected(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 0, 7.5, 0)])
        with pytest.raises(ValueError, match="scale"):
            grade_ratings(load_ratings(str(path)))

    @pytest.mark.parametrize("rating", ["nan", "-nan", "inf", "-inf"])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 0, 2.5, 0), (1, 1, rating, 0)])
        with pytest.raises(ValueError, match="non-finite rating"):
            grade_ratings(load_ratings(str(path)))

    @pytest.mark.parametrize("scale", [(math.nan, 5.0), (0.5, math.nan), (0.5, math.inf),
                                       (-math.inf, 5.0)])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 0, 2.5, 0)])
        with pytest.raises(ValueError, match="invalid rating scale"):
            grade_ratings(load_ratings(str(path)), scale=scale)


class TestEntropyFilter:
    def build(self, tmp_path):
        # item 0: all users agree (H = 0); item 1: two grades; item 2: three
        # grades; item 3: uniform over four grades (highest H)
        rows = []
        grades_by_item = {
            0: [5.0, 5.0, 5.0, 5.0],
            1: [5.0, 0.5, 5.0, 0.5],
            2: [5.0, 2.0, 3.5, 2.0],
            3: [5.0, 0.5, 2.0, 3.5],
        }
        for item, ratings in grades_by_item.items():
            for user, r in enumerate(ratings):
                rows.append((user, item, r, 0))
        path = tmp_path / "r.dat"
        write_ratings(path, rows)
        return grade_ratings(load_ratings(str(path)))

    def test_removes_exactly_half_lowest_entropy(self, tmp_path):
        ds = self.build(tmp_path)
        out = entropy_filter(ds)
        assert out.n_items == 2
        assert out.item_ids.tolist() == [2, 3]

    def test_needs_grades(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(1, 0, 3.0, 0)])
        with pytest.raises(ValueError):
            entropy_filter(load_ratings(str(path)))

    @pytest.mark.parametrize("bad", [0, 6])
    def test_grades_outside_n_grades_rejected(self, tmp_path, bad):
        # the counts are one bincount over item * n_grades + grade - 1, where
        # such a grade would be counted for a neighbouring item
        ds = self.build(tmp_path)
        grades = ds.grades.copy()
        grades[0] = bad
        with pytest.raises(ValueError, match="grades must lie in 1..5"):
            entropy_filter(replace(ds, grades=grades))

    def test_removed_entropies_below_retained(self, tmp_path):
        rng = random.Random(3)
        rows = []
        for item in range(11):
            for user in range(30):
                rows.append((user, item, rng.choice([0.5 * k for k in range(1, 11)]), 0))
        path = tmp_path / "big.dat"
        write_ratings(path, rows)
        ds = grade_ratings(load_ratings(str(path)))

        def entropies(d):
            out = {}
            for dense in range(d.n_items):
                mask = d.items == dense
                counts = np.bincount(d.grades[mask] - 1, minlength=5)
                p = counts / counts.sum()
                out[int(d.item_ids[dense])] = -np.sum(np.where(p > 0, p * np.log(p), 0.0))
            return out

        before = entropies(ds)
        out = entropy_filter(ds)
        assert out.n_items == 11 - 11 // 2
        kept = set(out.item_ids.tolist())
        removed = set(ds.item_ids.tolist()) - kept
        assert len(removed) == 11 // 2
        assert max(before[i] for i in removed) <= min(before[i] for i in kept) + 1e-12


class TestTrainTestSplit:
    def build(self, tmp_path, counts):
        rows = []
        item = 0
        for user, c in enumerate(counts):
            for _ in range(c):
                rows.append((user, item % 97, 0.5 + 0.5 * (item % 10), 0))
                item += 1
        path = tmp_path / "r.dat"
        write_ratings(path, rows)
        return grade_ratings(load_ratings(str(path)))

    def test_user_below_min_dropped(self, tmp_path):
        ds = self.build(tmp_path, [19, 25])
        train_ds, test_ds = train_test_split(ds, SplitSpec(n_train=10, min_ratings=20, seed=0))
        train_users = set(train_ds.user_ids[train_ds.users].tolist())
        assert train_users == {1}
        test_users = set(test_ds.user_ids[test_ds.users].tolist())
        assert test_users == {1}

    def test_exact_counts(self, tmp_path):
        ds = self.build(tmp_path, [25])
        train_ds, test_ds = train_test_split(ds, SplitSpec(n_train=10, min_ratings=20, seed=0))
        assert train_ds.n_records == 10
        assert test_ds.n_records == 15

    def test_deterministic(self, tmp_path):
        ds = self.build(tmp_path, [30, 40, 21])
        spec = SplitSpec(n_train=10, min_ratings=20, seed=7)
        a_train, a_test = train_test_split(ds, spec)
        b_train, b_test = train_test_split(ds, spec)
        np.testing.assert_array_equal(a_train.items, b_train.items)
        np.testing.assert_array_equal(a_test.items, b_test.items)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            SplitSpec(n_train=10, min_ratings=15)

    def test_no_overlap_and_exhaustive(self, tmp_path):
        ds = self.build(tmp_path, [30])
        train_ds, test_ds = train_test_split(ds, SplitSpec(n_train=10, min_ratings=20, seed=1))
        train_keys = set(zip(train_ds.users.tolist(), train_ds.items.tolist()))
        test_keys = set(zip(test_ds.users.tolist(), test_ds.items.tolist()))
        assert not train_keys & test_keys
        assert len(train_keys) + len(test_keys) == 30


class TestUserPartitions:
    def test_blocks_follow_grades(self, tmp_path):
        path = tmp_path / "r.dat"
        write_ratings(path, [(7, 3, 5.0, 0), (7, 9, 5.0, 0), (7, 5, 1.0, 0)])
        ds = grade_ratings(load_ratings(str(path)))
        parts = user_partitions(ds)
        X = parts[0]
        # dense item ids follow sorted external ids: 3->0, 5->1, 9->2
        assert X.blocks == ((0, 2), (1,))
        assert X.n_objects == 3


class TestRankedList:
    def test_validates(self):
        with pytest.raises(ValueError):
            RankedList((1, 1), (0.5, 0.5))
        with pytest.raises(ValueError):
            RankedList((1, 2), (0.1, 0.9))
        RankedList((2, 1), (0.9, 0.1))


class TestCompleteRank:
    def test_zero_weight_model_tie_break_ascending(self):
        m = cf_latent_model(CFParams.zeros(6, 2))
        seen = OrderedPartition(((0, 1), (2,)), 6)
        out = complete_rank(seen, [5, 3, 4], m)
        assert out.items == (3, 4, 5)
        assert out.scores == (0.0, 0.0, 0.0)

    def test_k0_ranks_by_worth(self):
        p = CFParams(0.0, np.array([0.0, 0.0, 3.0, 1.0, 2.0]), np.zeros((5, 0)))
        m = cf_latent_model(p)
        seen = OrderedPartition(((0,), (1,)), 5)
        out = complete_rank(seen, [2, 3, 4], m)
        assert out.items == (2, 4, 3)
        # scores scale with |seen| = 2
        assert out.scores == (6.0, 4.0, 2.0)

    def test_ranking_invariant_to_seen_size_factor(self):
        rng = np.random.default_rng(0)
        p = CFParams(0.1, rng.normal(size=8), rng.normal(size=(8, 2)))
        m = cf_latent_model(p)
        small = OrderedPartition(((0,), (1,)), 8)
        large = OrderedPartition(((0, 1), (2,), (3,)), 8)
        unseen = [4, 5, 6, 7]
        # same posterior only when the seen partition is the same; instead
        # check that scaling scores never reorders: compare order under small
        # vs the same scores divided by |seen|
        out = complete_rank(small, unseen, m)
        scores = np.array(out.scores)
        assert out.items == tuple(
            sorted(unseen, key=lambda j: (-scores[out.items.index(j)] / 2, j))
        )
        out_large = complete_rank(large, unseen, m)
        assert len(out_large.items) == 4

    def test_empty_seen_rejected(self):
        m = cf_latent_model(CFParams.zeros(3, 1))
        with pytest.raises(ValueError):
            complete_rank(OrderedPartition((), 3), [0, 1], m)

    def test_overlap_rejected(self):
        m = cf_latent_model(CFParams.zeros(3, 1))
        seen = OrderedPartition(((0,),), 3)
        with pytest.raises(ValueError):
            complete_rank(seen, [0, 2], m)

    def test_scores_invariant_to_within_block_listing(self):
        rng = np.random.default_rng(1)
        p = CFParams(0.2, rng.normal(size=6), rng.normal(size=(6, 3)))
        m = cf_latent_model(p)
        a = OrderedPartition.from_blocks([[2, 0], [1]], 6)
        b = OrderedPartition.from_blocks([[0, 2], [1]], 6)
        assert complete_rank(a, [3, 4, 5], m) == complete_rank(b, [3, 4, 5], m)

    def test_general_model_matches_worth_fast_path(self):
        rng = np.random.default_rng(2)
        p = CFParams(0.3, rng.normal(size=5), rng.normal(size=(5, 2)))
        m = cf_latent_model(p)
        seen = OrderedPartition(((0, 1), (2,)), 5)
        fast = complete_rank(seen, [3, 4], m)
        # the pair-sum definition on tabulated potentials:
        # score(j) = sum_{i in seen} [log psi(j > i) + sum_k p_k log psi_k(j > i)]
        from osmrank.latent import LatentModel, hidden_posterior
        from osmrank.core import MatrixPairModel

        mats = LatentModel(
            MatrixPairModel(*m.base.tables()),
            [MatrixPairModel(*hm.tables()) for hm in m.hidden],
        )
        p_seen = hidden_posterior(seen, mats)
        order = mats.base.order + sum(pk * hm.order for pk, hm in zip(p_seen, mats.hidden))
        slow = {j: float(order[j, list(seen.objects)].sum()) for j in [3, 4]}
        assert fast.items == tuple(sorted(slow, key=lambda j: (-slow[j], j)))
        np.testing.assert_allclose(fast.scores, [slow[j] for j in fast.items], atol=1e-10)

    def test_generic_model_rejected(self):
        m = random_latent_model(4, 2, seed=3)
        seen = OrderedPartition(((0,), (1,)), 4)
        with pytest.raises(ValueError, match="worth-parameterized"):
            complete_rank(seen, [2, 3], m)
        with pytest.raises(ValueError, match="worth-parameterized"):
            reconstruct_rank(np.zeros(2), [2, 3], m)


class TestReconstructRank:
    def test_zero_w_ranks_by_u(self):
        p = CFParams(0.0, np.array([1.0, 3.0, 2.0]), np.zeros((3, 2)))
        out = reconstruct_rank(np.array([0.5, 0.5]), [0, 1, 2], cf_latent_model(p))
        assert out.items == (1, 2, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = CFParams(0.0, rng.normal(size=4), rng.normal(size=(4, 2)))
        m = cf_latent_model(p)
        post = np.array([0.2, 0.9])
        assert reconstruct_rank(post, range(4), m) == reconstruct_rank(post, range(4), m)

    def test_k0_matches_complete_rank_ordering(self):
        p = CFParams(0.4, np.array([0.3, -1.0, 2.0, 0.7]), np.zeros((4, 0)))
        m = cf_latent_model(p)
        seen = OrderedPartition(((0,), (1,)), 4)
        completed = complete_rank(seen, [2, 3], m)
        reconstructed = reconstruct_rank(np.zeros(0), [2, 3], m)
        assert completed.items == reconstructed.items


class TestEvaluateRanking:
    def build(self, tmp_path, n_users=30, n_items=12, seed=0):
        rng = random.Random(seed)
        rows = []
        for u in range(n_users):
            for it in range(n_items):
                rows.append((u, it, rng.choice([0.5 * k for k in range(1, 11)]), 0))
        path = tmp_path / "r.dat"
        write_ratings(path, rows)
        ds = grade_ratings(load_ratings(str(path)))
        return train_test_split(ds, SplitSpec(n_train=2, min_ratings=12, seed=1))

    def test_zero_model_matches_explicit_ascending_baseline(self, tmp_path):
        train_ds, test_ds = self.build(tmp_path)
        params = CFParams.zeros(train_ds.n_items, 2)
        report = evaluate_ranking(params, train_ds, test_ds, ["ndcg@5", "err"])
        # zero model ranks test items by ascending item index; replicate
        from osmrank.metrics import ndcg_at as nd, err as er

        nd_vals, er_vals = [], []
        for u, recs in enumerate(by_user(test_ds)):
            if len(recs) == 0:
                continue
            items = [int(test_ds.items[r]) for r in recs]
            grades = [int(test_ds.grades[r]) for r in recs]
            order = np.argsort(items, kind="stable")
            seq = [grades[i] for i in order]
            nd_vals.append(nd(seq, 5))
            er_vals.append(er(seq))
        assert report["metrics"]["ndcg@5"]["mean"] == pytest.approx(np.mean(nd_vals))
        assert report["metrics"]["err"]["mean"] == pytest.approx(np.mean(er_vals))

    def test_unknown_metric_rejected(self, tmp_path):
        train_ds, test_ds = self.build(tmp_path)
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate_ranking(CFParams.zeros(train_ds.n_items, 1), train_ds, test_ds, ["map@5"])


class TestParseMetric:
    def test_parses(self):
        assert parse_metric("ndcg@10")([[5, 0] * 5])[0] > 0
        assert parse_metric("err")([[5, 1]])[0] > 0
        with pytest.raises(ValueError):
            parse_metric("precision")

    @pytest.mark.parametrize("name", ["ndcg@x", "ndcg@", "ndcg@0"])
    def test_bad_truncation_names_the_metric(self, name):
        with pytest.raises(ValueError, match=re.escape(f"metric {name!r}: ")):
            parse_metric(name)


class TestBatchedEvaluation:
    """evaluate_ranking scores all users in one batch; the per-user oracle is
    complete_rank on user_partitions."""

    def split(self, tmp_path, n_grades, seed=0):
        rng = random.Random(seed)
        rows = []
        for u in range(40):
            for it in rng.sample(range(30), rng.randrange(10, 26)):  # varied test counts
                rows.append((u, it, rng.choice([0.5 * k for k in range(1, 11)]), 0))
        path = tmp_path / "r.dat"
        write_ratings(path, rows)
        ds = grade_ratings(load_ratings(str(path)), n_grades=n_grades)
        return ds, train_test_split(ds, SplitSpec(n_train=3, min_ratings=13, seed=seed))

    def params(self, kind, n_items, k, seed):
        if kind == "zero":
            return CFParams.zeros(n_items, k)
        rng = np.random.default_rng(seed)
        return CFParams(0.3, rng.uniform(-1, 1, n_items), rng.uniform(-1, 1, (n_items, k)))

    @pytest.mark.parametrize("n_grades", [3, 5])
    def test_coefficients_match_worth_features(self, tmp_path, n_grades):
        ds, (train_ds, _) = self.split(tmp_path, n_grades)
        for d in (ds, train_ds):
            pairs, coef = _worth_coefficients(d)
            for u, recs in enumerate(by_user(d)):
                if len(recs) == 0:
                    assert pairs[u] == 0
                    continue
                grades = {int(d.items[r]): int(d.grades[r]) for r in recs}
                m, items, c = worth_features(from_graded_ratings(grades, n_objects=d.n_items))
                assert pairs[u] == m
                assert dict(zip(d.items[recs].tolist(), coef[recs].tolist())) == dict(
                    zip(items.tolist(), c.tolist())
                )

    @pytest.mark.parametrize(
        "kind, k, n_grades, seed",
        [("random", 0, 5, 0), ("random", 2, 5, 1), ("random", 2, 3, 2), ("random", 0, 3, 3),
         ("zero", 0, 5, 4), ("zero", 2, 3, 5)],
    )
    def test_matches_per_user_oracle(self, tmp_path, kind, k, n_grades, seed):
        _, (train_ds, test_ds) = self.split(tmp_path, n_grades, seed)
        params = self.params(kind, train_ds.n_items, k, seed)
        model = cf_latent_model(params)
        parts = user_partitions(train_ds)
        ranked = _ranked_test_records(params, train_ds, test_ds)
        ranked_users = test_ds.users[ranked]
        expected = []
        for u, recs in enumerate(by_user(test_ds)):
            if len(recs) == 0 or u not in parts:
                assert u not in ranked_users
                continue
            oracle = complete_rank(parts[u], test_ds.items[recs].tolist(), model)
            got = ranked[ranked_users == u]
            assert tuple(test_ds.items[got].tolist()) == oracle.items
            grade_of = dict(zip(test_ds.items[recs].tolist(), test_ds.grades[recs].tolist()))
            ordered = [grade_of[j] for j in oracle.items]
            expected.append([ndcg_at(ordered, 1), ndcg_at(ordered, 5), err(ordered)])
        assert len({len(r) for r in by_user(test_ds) if len(r)}) > 1
        report = evaluate_ranking(params, train_ds, test_ds, ["ndcg@1", "ndcg@5", "err"])
        assert report["n_users"] == len(expected)
        for col, name in enumerate(["ndcg@1", "ndcg@5", "err"]):
            want = np.array(expected)[:, col]
            np.testing.assert_allclose(report["metrics"][name]["per_user"], want, rtol=0, atol=1e-12)

    def test_overlap_rejected(self, tmp_path):
        ds, (train_ds, _) = self.split(tmp_path, 5)
        with pytest.raises(ValueError, match="overlap"):
            evaluate_ranking(CFParams.zeros(ds.n_items, 1), train_ds, ds, ["err"])

    @pytest.mark.parametrize("end", [np.argmin, np.argmax])
    def test_one_overlapping_record_rejected(self, tmp_path, end):
        # the training record with the smallest or largest (user, item) key
        ds, (train_ds, test_ds) = self.split(tmp_path, 5)
        params = CFParams.zeros(ds.n_items, 1)
        evaluate_ranking(params, train_ds, test_ds, ["err"])
        r = int(end(train_ds.users * ds.n_items + train_ds.items))
        fields = ("users", "items", "ratings", "grades")
        overlapping = replace(test_ds, **{f: np.append(getattr(test_ds, f), getattr(train_ds, f)[r])
                                          for f in fields})
        with pytest.raises(ValueError, match="overlap"):
            evaluate_ranking(params, train_ds, overlapping, ["err"])
