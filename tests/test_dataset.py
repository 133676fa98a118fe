import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locindex import (
    NormalizedSample,
    PairedSample,
    ParseError,
    RawScores,
    histogram,
    jitter,
    load_csv,
    normalize,
    pair,
    summarize,
)

from conftest import write_csv


class TestLoadCsv:
    def test_fixture_has_52_rows(self, marks_csv):
        raw = load_csv(marks_csv)
        assert raw.rows.shape == (52, 3)
        assert raw.column_names == ("mathematics", "reading", "spelling")

    def test_a_byte_order_mark_is_skipped(self, tmp_path, marks_csv):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + marks_csv.read_bytes())
        raw, plain = load_csv(path), load_csv(marks_csv)
        assert raw.column_names == plain.column_names
        assert raw.max_items == plain.max_items
        assert np.array_equal(raw.rows, plain.rows)
        assert raw.rows.dtype == plain.rows.dtype

    def test_a_row_with_more_cells_than_the_header_is_rejected(self, tmp_path):
        path = write_csv(tmp_path / "wide.csv", ["S1,20,30", "S2,20,30,40"],
                         header="student_id,mathematics,reading")
        with pytest.raises(ParseError, match=r"row 2: 4 cells, but the header has 3 columns$"):
            load_csv(path, (65, 45))

    def test_empty_data_section(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        with pytest.raises(ParseError, match="no rows"):
            load_csv(path)

    def test_count_above_max_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "over.csv", ["S1,20,30,40", "S2,70,30,40"])
        with pytest.raises(ParseError, match=r"row 2.*mathematics.*70"):
            load_csv(path)

    def test_non_integer_cell(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["S1,20,3.5,40"])
        with pytest.raises(ParseError, match=r"row 1.*reading.*non-integer"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("student_id,mathematics,reading\nS1,20,30\n", encoding="utf-8")
        with pytest.raises(ParseError, match="required for the columns mathematics, reading$"):
            load_csv(path)

    @pytest.mark.parametrize("row, column", [("S1,3,,7", "reading"), ("S1,3,5", "spelling")])
    def test_an_empty_or_missing_cell_names_its_row_and_column(self, tmp_path, row, column):
        path = write_csv(tmp_path / "gap.csv", [row])
        with pytest.raises(ParseError, match=f"row 1: column '{column}': empty cell$"):
            load_csv(path)

    def test_negative_count(self, tmp_path):
        path = write_csv(tmp_path / "neg.csv", ["S1,-3,30,40"])
        with pytest.raises(ParseError, match=r"row 1.*negative"):
            load_csv(path)

    def test_other_columns_take_their_max_items_in_header_order(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("student_id,algebra,geometry\nS1,50,3\nS2,0,40\n", encoding="utf-8")
        raw = load_csv(path, (50, 40))
        assert raw.column_names == ("algebra", "geometry")
        assert raw.max_items == (50, 40)
        assert raw.rows.tolist() == [[50, 3], [0, 40]]

    @pytest.mark.parametrize("header, max_items, message", [
        ("student_id,algebra,geometry", None,
         "max_items is required for the columns algebra, geometry$"),
        ("student_id,algebra,geometry", (50,),
         "max_items needs 2 values, one per column algebra, geometry; got 1$"),
        ("student_id,mathematics,reading,spelling", (65, 45, 80, 10), "needs 3 values"),
        ("student_id,algebra,geometry", (50, 0), r"column 'geometry': max_items must be in "
                                                 r"\[1, 2\*\*63 - 1\], got 0$"),
        ("student_id,algebra,geometry", (-5, 40), "column 'algebra'.*got -5$"),
        ("student_id,algebra,geometry", (10 ** 400, 40), "column 'algebra'"),
        ("student_id,algebra,geometry", (50, 2 ** 63), "column 'geometry'"),
        ("student_id,reading,reading,spelling", None,
         "column[(]s[)] reading appear more than once"),
        ("student_id", None, "no score columns in the header$"),
        ("student_id,algebra,,geometry", (10, 10, 10), "header column 3 has no name$"),
        ("student_id,algebra,geometry, ", (10, 10, 10), "header column 4 has no name$"),
        ("", None, "no score columns in the header$"),
    ])
    def test_header_and_max_items_are_checked(self, tmp_path, header, max_items, message):
        path = tmp_path / "marks.csv"
        path.write_text(f"{header}\nS1,1,2,3\n" if header else "", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_csv(path, max_items)

    def test_counts_beyond_int64_are_rejected_by_column(self, tmp_path):
        path = write_csv(tmp_path / "big.csv", [f"S1,{10 ** 30},5,5"])
        with pytest.raises(ParseError, match="column 'mathematics': max_items"):
            load_csv(path, (10 ** 31, 45, 80))
        with pytest.raises(ParseError, match=r"row 1: column 'mathematics': count 10{30} "
                                             r"exceeds max_items 9223372036854775807$"):
            load_csv(path, (2 ** 63 - 1, 45, 80))

    def test_a_count_at_the_top_of_the_int64_range_loads(self, tmp_path):
        top = 2 ** 63 - 1
        path = write_csv(tmp_path / "top.csv", [f"S1,{top},5,5", "S2,0,5,5"])
        raw = load_csv(path, (top, 45, 80))
        assert raw.rows[:, 0].tolist() == [top, 0]
        assert normalize(raw).columns["mathematics"].tolist() == [1.0, 0.0]


class TestNormalize:
    def test_paper_extreme_values(self):
        # 19/65 and 44/45 are the normalized extremes reported for the
        # mathematics and reading columns
        raw = RawScores(
            column_names=("mathematics", "reading"),
            rows=np.array([[19, 44], [60, 10]]),
            max_items=(65, 45),
        )
        sample = normalize(raw)
        assert round(sample.columns["mathematics"][0], 4) == 0.2923
        assert round(sample.columns["reading"][0], 4) == 0.9778

    def test_zero_count(self):
        raw = RawScores(column_names=("a",), rows=np.array([[0], [5]]), max_items=(10,))
        assert normalize(raw).columns["a"][0] == 0.0

    def test_monotone_within_column(self):
        raw = RawScores(
            column_names=("a",), rows=np.array([[3], [9], [5]]), max_items=(10,)
        )
        col = normalize(raw).columns["a"]
        assert (np.argsort(col) == np.argsort([3, 9, 5])).all()


class TestJitter:
    def _tied_sample(self):
        return PairedSample(
            x=np.array([0.2, 0.2, 0.5, 0.5, 0.9]),
            y=np.array([0.1, 0.3, 0.3, 0.7, 0.7]),
        )

    def test_sd_zero_is_identity(self):
        sample = self._tied_sample()
        out = jitter(sample, 0.0, seed=7)
        assert out is sample

    def test_deterministic_for_fixed_seed(self):
        sample = self._tied_sample()
        a = jitter(sample, 1e-5, seed=3)
        b = jitter(sample, 1e-5, seed=3)
        assert (a.x == b.x).all() and (a.y == b.y).all()

    def test_breaks_ties(self):
        out = jitter(self._tied_sample(), 1e-5, seed=0)
        assert len(np.unique(out.x)) == out.n
        assert len(np.unique(out.y)) == out.n

    def test_noise_is_negligible(self):
        sample = self._tied_sample()
        out = jitter(sample, 1e-5, seed=1)
        assert np.max(np.abs(out.x - sample.x)) < 1e-3

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            jitter(self._tied_sample(), -1.0, seed=0)

    def test_one_draw_for_x_then_one_for_y(self):
        sample = self._tied_sample()
        out = jitter(sample, 1e-5, seed=9)
        rng = np.random.default_rng(9)
        assert (out.x == sample.x + rng.normal(0.0, 1e-5, size=5)).all()
        assert (out.y == sample.y + rng.normal(0.0, 1e-5, size=5)).all()

    def test_an_sd_too_small_to_move_a_value_keeps_the_tie(self):
        # 1e-320 is far below the spacing of floats near 0.2, so the draw
        # leaves x as it is; one draw is taken, never a retry
        sample = self._tied_sample()
        out = jitter(sample, 1e-320, seed=0)
        assert (out.x == sample.x).all() and (out.y == sample.y).all()


class TestSummarize:
    def test_hand_computed_column(self):
        stats = summarize(np.array([0.2, 0.4, 0.6, 0.8]))
        assert stats.mean == pytest.approx(0.5, abs=1e-15)
        # linear interpolation at positions (k-1)/(n-1)
        assert stats.q1 == pytest.approx(0.2 + 0.75 * 0.2, abs=1e-15)
        assert stats.median == pytest.approx(0.5, abs=1e-15)
        assert stats.q3 == pytest.approx(0.65, abs=1e-15)
        # sample variance by hand: sum((x - 0.5)^2) / 3
        assert stats.sd == pytest.approx(math.sqrt(0.2 / 3.0), rel=1e-14)

    def test_constant_column(self):
        stats = summarize(np.full(10, 0.5))
        assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (
            0.5, 0.5, 0.5, 0.5, 0.5,
        )
        assert stats.mean == 0.5
        assert stats.sd == 0.0

    def test_order_of_quantiles(self, marks_sample):
        for name in marks_sample.column_names:
            s = summarize(marks_sample.columns[name])
            assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
            assert s.sd >= 0

    @given(st.permutations(list(range(9))))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, perm):
        base = np.array([0.05, 0.1, 0.2, 0.35, 0.4, 0.55, 0.7, 0.85, 0.9])
        shuffled = base[np.array(perm)]
        assert summarize(shuffled) == summarize(base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))


class TestHistogram:
    def test_single_bin(self):
        assert histogram(np.array([0.2, 0.5, 0.9]), 1).tolist() == [3]

    def test_symmetric_split(self):
        assert histogram(np.array([0.1, 0.9]), 2).tolist() == [1, 1]

    def test_fixture_sums_to_n(self, marks_sample):
        counts = histogram(marks_sample.columns["mathematics"], 7)
        assert counts.sum() == 52

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_always_sum_to_n(self, values, bins):
        counts = histogram(np.array(values), bins)
        assert counts.sum() == len(values)
        assert (counts >= 0).all()

    def test_constant_column(self):
        counts = histogram(np.full(5, 0.3), 4)
        assert counts.tolist() == [5, 0, 0, 0]

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            histogram(np.array([0.1]), 0)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="^cannot histogram an empty column$"):
            histogram(np.array([]), 3)


class TestPair:
    def test_roles_are_ordered(self, marks_sample):
        fwd = pair(marks_sample, "mathematics", "reading")
        rev = pair(marks_sample, "reading", "mathematics")
        assert (fwd.x == marks_sample.columns["mathematics"]).all()
        assert (fwd.x == rev.y).all()
        assert (fwd.y == rev.x).all()

    def test_self_pair_allowed(self, marks_sample):
        same = pair(marks_sample, "reading", "reading")
        assert (same.x == same.y).all()

    def test_unknown_label(self, marks_sample):
        with pytest.raises(ValueError, match="science"):
            pair(marks_sample, "mathematics", "science")


class TestNormalizedSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_column(self, bad):
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 0.1, 0.4])}
        columns["b"][1] = bad
        with pytest.raises(ValueError, match="^column 'b' has a non-finite value"):
            NormalizedSample(column_names=("a", "b"), columns=columns)

    def test_columns_of_unequal_length_are_rejected(self):
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 0.1])}
        with pytest.raises(ValueError, match="^all columns must have equal length$"):
            NormalizedSample(column_names=("a", "b"), columns=columns)

    def test_value_outside_the_unit_interval_names_its_column(self):
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 1.5, 0.4])}
        with pytest.raises(ValueError, match="^column 'b' has values outside"):
            NormalizedSample(column_names=("a", "b"), columns=columns)

    def test_column_missing_from_column_names_is_rejected(self):
        # unlisted, c would skip the range check and reach pair() as it is
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 0.1, 0.4]),
                   "c": np.array([5.0, -3.0, 7.0])}
        with pytest.raises(ValueError, match=r"^column_names \['a', 'b'\] must name each "
                                             r"column once; the columns are \['a', 'b', 'c'\]$"):
            NormalizedSample(column_names=("a", "b"), columns=columns)

    @pytest.mark.parametrize("names", [("a", "b", "c"), ("a", "b", "a")])
    def test_name_without_its_own_column_is_rejected(self, names):
        # a ValueError, not the KeyError of looking the missing column up
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 0.1, 0.4])}
        with pytest.raises(ValueError, match="must name each column once"):
            NormalizedSample(column_names=names, columns=columns)

    def test_no_columns_are_rejected(self):
        # an empty sample would raise IndexError from .n instead
        with pytest.raises(ValueError, match="^a normalized sample needs at least one column$"):
            NormalizedSample(column_names=(), columns={})

    def test_callers_dict_is_left_as_it_was(self):
        columns = {"a": [0.1, 0.3, 0.2], "b": [0.5, 0.1, 0.4]}
        sample = NormalizedSample(column_names=("b", "a"), columns=columns)
        assert columns == {"a": [0.1, 0.3, 0.2], "b": [0.5, 0.1, 0.4]}
        assert sample.columns is not columns
        assert list(sample.columns) == ["b", "a"]
        assert sample.columns["a"].dtype == float and sample.n == 3


class TestPairedSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", ["x", "y"])
    def test_non_finite_value_names_its_coordinate(self, bad, coordinate):
        values = {"x": np.array([0.1, 0.3, 0.25, 0.2]), "y": np.array([0.5, 0.1, 0.4, 0.9])}
        values[coordinate][1] = bad
        with pytest.raises(ValueError, match=f"^{coordinate} has a non-finite value"):
            PairedSample(**values)

    @pytest.mark.parametrize("x, y, message", [
        ([[0.1, 0.2], [0.3, 0.4]], [0.5, 0.6], "^x and y must be 1-d vectors of equal length$"),
        ([0.1, 0.2, 0.3], [0.5, 0.6], "^x and y must be 1-d vectors of equal length$"),
        ([0.1], [0.5], "^a paired sample needs at least 2 observations$"),
    ])
    def test_inconsistent_shapes_are_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            PairedSample(x=np.array(x), y=np.array(y))

    def test_finite_extremes_are_accepted(self):
        big = np.finfo(float).max
        sample = PairedSample(x=np.array([-big, big]), y=np.array([5e-324, 0.0]))
        assert sample.n == 2


class TestRawScores:
    @pytest.mark.parametrize("names, rows, max_items, message", [
        (("a",), [[11]], (10,), "^column 'a' has a count above 10$"),
        (("a",), [3, 4], (10,), r"^rows must be \(n, k\) with k = len\(column_names\)$"),
        (("a", "b"), [[3], [4]], (10, 10), r"^rows must be \(n, k\)"),
        (("a", "b"), [[3, 4]], (10,), "^max_items must match column_names$"),
        (("a", "b"), [[3, -1]], (10, 10), "^raw counts must be non-negative$"),
    ])
    def test_raw_scores_invariants(self, names, rows, max_items, message):
        with pytest.raises(ValueError, match=message):
            RawScores(column_names=names, rows=np.array(rows), max_items=max_items)
