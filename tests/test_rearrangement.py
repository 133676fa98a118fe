import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from locindex import (
    increasing_rearrangement,
    loc_index,
    step_from_curve,
)

from oracles import distribution, loc_by_integration

finite_taus = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=50),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


class TestStepValues:
    @pytest.mark.parametrize("func", [loc_index, increasing_rearrangement])
    @pytest.mark.parametrize("values, message", [
        ([], "taus must be a non-empty 1-d vector"),
        ([[0.1, 0.2], [0.3, 0.4]], "taus must be a non-empty 1-d vector"),
        ([0.1, np.nan], "taus must be finite"),
        ([0.1, np.inf], "taus must be finite"),
    ], ids=["empty", "2-d", "nan", "inf"])
    def test_rejects_invalid_values(self, func, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            func(np.array(values, dtype=float))


class TestIncreasingRearrangement:
    def test_sorts(self):
        out = increasing_rearrangement(np.array([0.9, 0.1, 0.5]))
        assert out.tolist() == [0.1, 0.5, 0.9]

    def test_sorted_input_unchanged(self):
        taus = [0.1, 0.5, 0.9]
        out = increasing_rearrangement(np.array(taus))
        assert out.tolist() == taus

    @given(finite_taus)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, taus):
        once = increasing_rearrangement(taus)
        twice = increasing_rearrangement(once)
        assert (once == twice).all()

    @given(finite_taus)
    @settings(max_examples=100, deadline=None)
    def test_quantile_of_distribution_at_midpoints(self, taus):
        rearranged = increasing_rearrangement(taus)
        m = taus.size
        levels = np.unique(taus)
        for i in range(1, m + 1):
            t = (i - 0.5) / m
            g = np.array([distribution(taus, x) for x in levels])
            inf_value = levels[np.searchsorted(g, t, side="left")]
            assert inf_value == rearranged[i - 1]


class TestLocIndex:
    def test_two_piece_swap(self):
        taus = np.array([1.0, 0.0])
        value = loc_index(taus).value
        assert value == pytest.approx(0.25, abs=1e-15)
        assert value == pytest.approx(loc_by_integration(taus), abs=1e-15)

    def test_three_piece_example(self):
        taus = np.array([0.5, 0.9, 0.1])
        assert loc_index(taus).value == pytest.approx(1.2 / 9.0, abs=1e-14)
        assert loc_index(taus).value == pytest.approx(loc_by_integration(taus), abs=1e-13)

    def test_nondecreasing_gives_exact_zero(self):
        assert loc_index(np.array([0.1, 0.1, 0.4, 0.9])).value == 0.0

    @given(finite_taus)
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_zero_iff_sorted(self, taus):
        value = loc_index(taus).value
        assert value >= -1e-12  # float rounding of the exact non-negative sum
        if (np.diff(taus) >= 0).all():
            assert value == 0.0

    @given(finite_taus, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, taus, shift):
        base = loc_index(taus).value
        shifted = loc_index(taus + shift).value
        assert shifted == pytest.approx(base, abs=1e-12)

    @given(finite_taus, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneity(self, taus, c):
        base = loc_index(taus).value
        scaled = loc_index(c * taus).value
        assert scaled == pytest.approx(c * base, abs=1e-12)

    def test_comonotonic_additivity(self):
        rng = np.random.default_rng(5)
        transforms = [np.square, np.exp, lambda u: np.floor(5 * u) / 5.0, lambda u: u]
        for _ in range(200):
            m = int(rng.integers(1, 80))
            driver = rng.uniform(0, 1, m)
            g = transforms[rng.integers(0, 4)](driver)
            h = transforms[rng.integers(0, 4)](driver)
            lhs = loc_index(g + h).value
            rhs = loc_index(g).value + loc_index(h).value
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(finite_taus.filter(lambda t: t.size >= 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rearrangement_contraction(self, u, data):
        v = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=st.just(u.shape),
                elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            )
        )
        lhs = np.abs(np.sort(u) - np.sort(v)).mean()
        rhs = np.abs(u - v).mean()
        assert lhs <= rhs + 1e-12

    def test_formula_equals_integration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 51))
            taus = rng.uniform(-2, 2, m)
            assert loc_index(taus).value == pytest.approx(
                loc_by_integration(taus), abs=1e-12
            )


class TestStepFromCurve:
    def test_direct_transfer(self):
        from locindex import BandwidthEstimate, FitSpec, FittedCurve, LossKind

        spec = FitSpec(
            loss=LossKind.quadratic(),
            bandwidth=BandwidthEstimate(value=0.1, method="fixed"),
            grid_size=3,
        )
        curve = FittedCurve(grid=np.array([0.0, 0.5, 1.0]), values=np.array([0.1, 0.2, 0.3]), spec=spec)
        assert step_from_curve(curve) is curve.values
        assert step_from_curve(curve).tolist() == [0.1, 0.2, 0.3]

    def test_value_multiset_preserved(self):
        from locindex import BandwidthEstimate, FitSpec, FittedCurve, LossKind

        spec = FitSpec(
            loss=LossKind.quadratic(),
            bandwidth=BandwidthEstimate(value=0.1, method="fixed"),
            grid_size=5,
        )
        values = np.array([0.3, 0.1, 0.9, 0.1, 0.5])
        curve = FittedCurve(grid=np.linspace(0, 1, 5), values=values, spec=spec)
        assert sorted(step_from_curve(curve)) == sorted(values)

