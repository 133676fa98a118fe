import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locindex import (
    ColumnSchema,
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
        assert raw.n == 52
        assert raw.column_names == ("mathematics", "reading", "spelling")

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
        with pytest.raises(ParseError, match="spelling"):
            load_csv(path)

    def test_negative_count(self, tmp_path):
        path = write_csv(tmp_path / "neg.csv", ["S1,-3,30,40"])
        with pytest.raises(ParseError, match=r"row 1.*negative"):
            load_csv(path)


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

    def test_value_outside_the_unit_interval_names_its_column(self):
        columns = {"a": np.array([0.1, 0.3, 0.2]), "b": np.array([0.5, 1.5, 0.4])}
        with pytest.raises(ValueError, match="^column 'b' has values outside"):
            NormalizedSample(column_names=("a", "b"), columns=columns)


class TestPairedSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", ["x", "y"])
    def test_non_finite_value_names_its_coordinate(self, bad, coordinate):
        values = {"x": np.array([0.1, 0.3, 0.25, 0.2]), "y": np.array([0.5, 0.1, 0.4, 0.9])}
        values[coordinate][1] = bad
        with pytest.raises(ValueError, match=f"^{coordinate} has a non-finite value"):
            PairedSample(**values)

    def test_finite_extremes_are_accepted(self):
        big = np.finfo(float).max
        sample = PairedSample(x=np.array([-big, big]), y=np.array([5e-324, 0.0]))
        assert sample.n == 2


class TestSchema:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            ColumnSchema(names=("a",), max_items=(0,))
        with pytest.raises(ValueError):
            ColumnSchema(names=("a", "b"), max_items=(5,))

    def test_raw_scores_invariants(self):
        with pytest.raises(ValueError):
            RawScores(column_names=("a",), rows=np.array([[11]]), max_items=(10,))
