import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locindex import (
    BandwidthEstimate,
    FitSpec,
    LossKind,
    NormalizedSample,
    PairedSample,
    PsiFunction,
    TiesError,
    empirical_ranks,
    finite_population_I,
    fit_pair,
    jitter,
    liebscher_zeta,
    loc_index,
    loc_matrix,
    pair,
    pearson,
    psi_norm_constant,
    rank_step_function,
    spearman,
)
from locindex.association import _squared_rank_gaps
from scipy import integrate

from oracles import (
    pearson_scipy,
    random_tie_free_sample,
    scipy_ranks,
    spearman_rank_formula,
    spearman_scipy,
)


def sample_with_induced_2_3_1() -> PairedSample:
    # sorted by x, the y ranks read 2, 3, 1
    return PairedSample(x=np.array([0.1, 0.4, 0.8]), y=np.array([0.5, 0.9, 0.2]))


class TestPearson:
    def test_antitone_line(self):
        x = np.linspace(0.1, 0.9, 10)
        assert pearson(PairedSample(x=x, y=1.0 - x)) == pytest.approx(-1.0, abs=1e-12)

    def test_self_pair_is_one(self, marks_sample):
        col = marks_sample.columns["reading"]
        assert pearson(PairedSample(x=col, y=col)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = random_tie_free_sample(rng, int(rng.integers(5, 60)))
            ours = pearson(PairedSample(x=x, y=y))
            assert ours == pytest.approx(pearson_scipy(x, y), abs=1e-12)

    def test_constant_coordinate_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson(PairedSample(x=np.full(5, 0.5), y=np.arange(5) / 5))

    def test_shift_invariance_and_sign_flip(self):
        rng = np.random.default_rng(1)
        x, y = random_tie_free_sample(rng, 30)
        base = pearson(PairedSample(x=x, y=y))
        assert pearson(PairedSample(x=x + 0.25, y=y)) == pytest.approx(base, abs=1e-12)
        assert pearson(PairedSample(x=x, y=-y)) == pytest.approx(-base, abs=1e-12)


class TestEmpiricalRanks:
    def test_hand_ranked_example(self):
        pr = PairedSample(x=np.array([0.2, 0.5, 0.9]), y=np.array([0.9, 0.1, 0.5]))
        ranks = empirical_ranks(pr)
        assert ranks.induced.tolist() == [3, 1, 2]
        assert ranks.fx.tolist() == [1 / 3, 2 / 3, 1.0]
        assert ranks.gy.tolist() == [1.0, 1 / 3, 2 / 3]

    def test_comonotone_identity_ranks(self):
        x = np.linspace(0.1, 0.9, 8)
        ranks = empirical_ranks(PairedSample(x=x, y=x**2))
        assert ranks.induced.tolist() == list(range(1, 9))

    def test_duplicate_x_raises(self):
        pr = PairedSample(x=np.array([0.2, 0.2, 0.9]), y=np.array([0.9, 0.1, 0.5]))
        with pytest.raises(TiesError, match="jitter"):
            empirical_ranks(pr)

    def test_duplicate_y_raises(self):
        pr = PairedSample(x=np.array([0.2, 0.4, 0.9]), y=np.array([0.5, 0.1, 0.5]))
        with pytest.raises(TiesError):
            empirical_ranks(pr)

    def test_a_sample_is_ranked_once(self, monkeypatch):
        import locindex.association as A

        calls = []
        dense_ranks = A._dense_ranks
        monkeypatch.setattr(A, "_dense_ranks", lambda *a: calls.append(a[1]) or dense_ranks(*a))
        rng = np.random.default_rng(5)
        x, y = random_tie_free_sample(rng, 30)
        pr = PairedSample(x=x, y=y)
        spearman(pr)
        liebscher_zeta(pr, PsiFunction.quadratic())
        liebscher_zeta(pr, PsiFunction.absolute())
        finite_population_I(pr)
        rank_step_function(pr)
        assert calls == ["x", "y"]
        ranks = empirical_ranks(pr)
        assert empirical_ranks(pr) is ranks
        assert not any(v.flags.writeable for v in (ranks.fx, ranks.gy, ranks.induced))

    def test_fx_is_a_permutation_of_grid(self):
        rng = np.random.default_rng(2)
        x, y = random_tie_free_sample(rng, 17)
        ranks = empirical_ranks(PairedSample(x=x, y=y))
        assert sorted(ranks.fx) == pytest.approx([i / 17 for i in range(1, 18)])

    # at n = 1e5 numpy's default sort is a vectorised one, not the stable one

    def test_matches_scipy_at_a_large_n(self):
        rng = np.random.default_rng(3)
        x, y = random_tie_free_sample(rng, 100_000)
        ranks = empirical_ranks(PairedSample(x=x, y=y))
        fx, gy, induced = scipy_ranks(x, y)
        np.testing.assert_array_equal(ranks.fx, fx)
        np.testing.assert_array_equal(ranks.gy, gy)
        np.testing.assert_array_equal(ranks.induced, induced)

    @pytest.mark.parametrize("tie", [(0.5, 0.5), (0.0, -0.0)])
    @pytest.mark.parametrize("coordinate", ["x", "y"])
    def test_one_tie_at_a_large_n_raises(self, coordinate, tie):
        rng = np.random.default_rng(4)
        values = dict(zip("xy", random_tie_free_sample(rng, 100_000)))
        values[coordinate][[17, 90_000]] = tie
        assert len(np.unique(values[coordinate])) == 100_000 - 1
        message = f"tied values in {coordinate}; jitter the sample (sd ~ 1e-5) before ranking"
        with pytest.raises(TiesError, match=f"^{re.escape(message)}$"):
            empirical_ranks(PairedSample(**values))


class TestSpearman:
    def test_comonotone(self):
        x = np.linspace(0.1, 0.9, 12)
        assert spearman(PairedSample(x=x, y=np.exp(x))) == pytest.approx(1.0, abs=1e-12)

    def test_antitone(self):
        x = np.linspace(0.1, 0.9, 12)
        assert spearman(PairedSample(x=x, y=-x)) == pytest.approx(-1.0, abs=1e-12)

    def test_induced_2_3_1(self):
        assert spearman(sample_with_induced_2_3_1()) == pytest.approx(-0.5, abs=1e-12)

    def test_matches_classical_formula_and_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = random_tie_free_sample(rng, int(rng.integers(4, 80)))
            ours = spearman(PairedSample(x=x, y=y))
            assert ours == pytest.approx(spearman_rank_formula(x, y), abs=1e-12)
            assert ours == pytest.approx(spearman_scipy(x, y), abs=1e-10)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(4)
        x, y = random_tie_free_sample(rng, 40)
        base = spearman(PairedSample(x=x, y=y))
        warped = spearman(PairedSample(x=np.exp(2 * x), y=y**3))
        assert warped == pytest.approx(base, abs=1e-12)


class TestPsiNormConstant:
    def test_quadratic_closed_form(self):
        assert psi_norm_constant(PsiFunction.quadratic()) == pytest.approx(1 / 12, abs=1e-15)
        oracle, _ = integrate.quad(lambda u: 2 * (1 - u) * u**2 / 2, 0, 1)
        assert psi_norm_constant(PsiFunction.quadratic()) == pytest.approx(oracle, abs=1e-12)

    def test_absolute_closed_form(self):
        assert psi_norm_constant(PsiFunction.absolute()) == pytest.approx(1 / 3, abs=1e-15)
        oracle, _ = integrate.quad(lambda u: 2 * (1 - u) * abs(u), 0, 1)
        assert psi_norm_constant(PsiFunction.absolute()) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("kind", ["custom", "Quadratic", "", "abs"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown psi kind"):
            PsiFunction(kind=kind)


class TestLiebscherZeta:
    def test_comonotone_is_one_for_any_psi(self):
        x = np.linspace(0.05, 0.95, 15)
        pr = PairedSample(x=x, y=x**3)
        for psi in (PsiFunction.quadratic(), PsiFunction.absolute()):
            assert liebscher_zeta(pr, psi) == pytest.approx(1.0, abs=1e-13)

    def test_induced_2_3_1_quadratic(self):
        assert liebscher_zeta(
            sample_with_induced_2_3_1(), PsiFunction.quadratic()
        ) == pytest.approx(-1 / 3, abs=1e-13)

    def test_symmetric_in_roles(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = random_tie_free_sample(rng, 31)
            fwd = liebscher_zeta(PairedSample(x=x, y=y), PsiFunction.absolute())
            rev = liebscher_zeta(PairedSample(x=y, y=x), PsiFunction.absolute())
            assert fwd == pytest.approx(rev, abs=1e-13)

    def test_relation_to_finite_I(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, y = random_tie_free_sample(rng, int(rng.integers(3, 120)))
            pr = PairedSample(x=x, y=y)
            zeta = liebscher_zeta(pr, PsiFunction.quadratic())
            assert zeta == pytest.approx(1.0 - 12.0 * finite_population_I(pr), rel=1e-12, abs=1e-13)


class TestFinitePopulationI:
    def test_hand_example(self):
        assert finite_population_I(sample_with_induced_2_3_1()) == pytest.approx(
            1 / 9, abs=1e-15
        )

    def test_comonotone_is_zero(self):
        x = np.linspace(0.1, 0.9, 25)
        assert finite_population_I(PairedSample(x=x, y=np.sqrt(x))) == 0.0

    def test_reversed_sample_is_one_sixth_up_to_the_n_cubed_term(self):
        n = 1000
        x = np.linspace(0.0, 1.0, n)
        assert finite_population_I(PairedSample(x=x, y=-x)) == (n * (n * n - 1) // 3) / (2.0 * n**3)

    def test_reversed_ranks_beyond_the_int64_range(self):
        # sum (i - r_i)^2 = n (n^2 - 1) / 3 exceeds 2^63 - 1 from n of about
        # 3.03e6; one int64 sum wrapped to a negative I at n = 3.1e6
        n = 3_100_000
        total = _squared_rank_gaps(np.arange(n, 0, -1))
        assert total == n * (n * n - 1) // 3 > np.iinfo(np.int64).max
        assert total / (2.0 * n**3) == pytest.approx(1 / 6, rel=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        x, y = random_tie_free_sample(rng, 50)
        base = finite_population_I(PairedSample(x=x, y=y))
        warped = finite_population_I(PairedSample(x=x**3, y=np.exp(y)))
        assert warped == base


class TestRankStepFunction:
    def test_hand_example(self):
        step = rank_step_function(sample_with_induced_2_3_1())
        assert step == pytest.approx([2 / 3, 1.0, 1 / 3])

    def test_is_the_induced_ranks_over_n(self):
        rng = np.random.default_rng(12)
        x, y = random_tie_free_sample(rng, 40)
        pr = PairedSample(x=x, y=y)
        step = rank_step_function(pr)
        assert np.array_equal(step, empirical_ranks(pr).induced / pr.n)

    def test_comonotone_is_nondecreasing(self):
        x = np.linspace(0.1, 0.9, 9)
        step = rank_step_function(PairedSample(x=x, y=x**2))
        assert (np.diff(step) >= 0).all()

    def test_identity_with_finite_I(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 501))
            x, y = random_tie_free_sample(rng, n)
            pr = PairedSample(x=x, y=y)
            lhs = loc_index(rank_step_function(pr)).value
            rhs = finite_population_I(pr)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-16)


class TestSpearmanZetaBridge:
    def test_exact_finite_sample_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 200))
            x, y = random_tie_free_sample(rng, n)
            pr = PairedSample(x=x, y=y)
            zeta = liebscher_zeta(pr, PsiFunction.quadratic())
            rho = spearman(pr)
            bridged = 1.0 - (1.0 - rho) * (n * n - 1.0) / (n * n)
            assert zeta == pytest.approx(bridged, rel=1e-13, abs=1e-13)


class TestLocMatrix:
    @staticmethod
    def _comonotone_sample(n=60) -> NormalizedSample:
        x = np.linspace(0.05, 0.95, n)
        return NormalizedSample(
            column_names=("a", "b", "c"),
            columns={"a": x, "b": x.copy(), "c": x**2},
        )

    def test_comonotone_columns_give_zero(self):
        matrix = loc_matrix(
            self._comonotone_sample(),
            FitSpec(loss=LossKind.quadratic(), grid_size=400),
            jitter_sd=1e-5,
            seed=1,
        )
        off_diag = matrix.entries[~np.eye(3, dtype=bool)]
        assert np.nanmax(off_diag) < 1e-6
        assert not matrix.failures

    def test_diagonal_is_zero(self, marks_sample):
        matrix = loc_matrix(
            marks_sample, FitSpec(loss=LossKind.quadratic(), grid_size=200), seed=3
        )
        assert np.diag(matrix.entries).tolist() == [0.0, 0.0, 0.0]

    def test_deterministic_for_fixed_seed(self, marks_sample):
        spec = FitSpec(loss=LossKind.quadratic(), grid_size=200)
        a = loc_matrix(marks_sample, spec, jitter_sd=1e-5, seed=42)
        b = loc_matrix(marks_sample, spec, jitter_sd=1e-5, seed=42)
        assert (a.entries == b.entries).all()

    def test_fixture_matrix_is_asymmetric(self, marks_sample):
        matrix = loc_matrix(
            marks_sample, FitSpec(loss=LossKind.quadratic(), grid_size=500), seed=0
        )
        assert not np.allclose(matrix.entries, matrix.entries.T)

    def test_failed_pair_is_marked_not_fatal(self):
        # a constant column defeats bandwidth selection for pairs using it as x
        x = np.linspace(0.05, 0.95, 40)
        sample = NormalizedSample(
            column_names=("a", "flat"),
            columns={"a": x, "flat": np.full(40, 0.5)},
        )
        matrix = loc_matrix(
            sample, FitSpec(loss=LossKind.quadratic(), grid_size=100), jitter_sd=0.0, seed=0
        )
        assert np.isnan(matrix.entries[1, 0])  # flat as x: degenerate
        assert ("flat", "a") in matrix.failures
        assert np.isfinite(matrix.entries[0, 1])  # the other direction still ran

    def test_fixed_bandwidth_is_honored(self, marks_sample):
        spec = FitSpec(
            loss=LossKind.quadratic(),
            bandwidth=BandwidthEstimate(value=0.2, method="fixed"),
            grid_size=200,
        )
        matrix = loc_matrix(marks_sample, spec, seed=0)
        assert not matrix.failures

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 40),
           h=st.sampled_from((0.1, 0.3)), levels=st.sampled_from((None, 10, 30)))
    def test_invariant_under_row_permutation(self, seed, n, h, levels):
        # only without jitter, which assigns its noise by row position:
        # fit_curve sorts the sample by (x, y) once, so both curves see the
        # same rows in the same order and the LOCs are equal bit for bit.
        # Columns rounded to 1 / levels are tied, like the marks
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, n)
        columns = {"a": a, "b": 0.2 + 0.6 * a + rng.uniform(-0.2, 0.2, n),
                   "c": rng.uniform(0.0, 1.0, n)}
        if levels is not None:
            columns = {k: np.round(col * levels) / levels for k, col in columns.items()}
        order = rng.permutation(n)
        sample = NormalizedSample(column_names=("a", "b", "c"), columns=columns)
        permuted = NormalizedSample(column_names=("a", "b", "c"),
                                    columns={k: col[order] for k, col in columns.items()})
        for loss in (LossKind.quadratic(), LossKind.median()):
            spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=h, method="fixed"),
                           grid_size=100)
            base = loc_matrix(sample, spec, jitter_sd=0.0)
            moved = loc_matrix(permuted, spec, jitter_sd=0.0)
            assert moved.failures == base.failures
            # a failed pair's NaN must sit in the same place in both
            np.testing.assert_array_equal(moved.entries, base.entries)

    def test_needs_two_columns(self):
        sample = NormalizedSample(column_names=("a",), columns={"a": np.linspace(0, 1, 30)})
        with pytest.raises(ValueError):
            loc_matrix(sample, FitSpec(loss=LossKind.quadratic(), grid_size=100))


class TestFitPair:
    @pytest.mark.parametrize("loss", [LossKind.quadratic(), LossKind.median()])
    def test_a_jitter_that_leaves_ties_still_gives_a_loc(self, marks_sample, loss):
        # no mark of the fixture is 0, so 1e-320 moves none and the ties stay;
        # the fit of tied data is the unjittered one
        pr = pair(marks_sample, "mathematics", "reading")
        assert len(np.unique(pr.x)) < pr.n
        spec = FitSpec(loss=loss, grid_size=100)
        fit = fit_pair(pr, spec, jitter_sd=1e-320, seed=0)
        assert fit.error is None
        assert fit.loc == fit_pair(pr, spec, jitter_sd=0.0).loc

    def test_a_set_bandwidth_is_used_whatever_its_method(self, marks_sample):
        pr = pair(marks_sample, "mathematics", "reading")
        plug_in = fit_pair(pr, FitSpec(loss=LossKind.median(), grid_size=50)).bandwidth
        given_bw = BandwidthEstimate(value=0.5 * plug_in.value, method="median_adjusted",
                                     diagnostics=plug_in.diagnostics)
        fit = fit_pair(pr, FitSpec(loss=LossKind.median(), bandwidth=given_bw, grid_size=50))
        assert fit.bandwidth is given_bw
        assert fit.curve.spec.bandwidth is given_bw

    @pytest.mark.parametrize("loss, message", [
        (LossKind.quadratic(), "taus must be finite"),
        (LossKind.median(), "check-loss objective overflows"),
    ])
    def test_a_curve_that_overflows_is_a_pair_error(self, marks_sample, loss, message):
        # y spans [-1e308, 1e308]: the weighted sums of the mean overflow, with
        # numpy's warning, to a curve that is not finite, and the median's
        # first objective to inf
        pr = jitter(pair(marks_sample, "mathematics", "reading"), 1e-5, 0)
        wide = PairedSample(x=pr.x, y=(2.0 * pr.y - 1.0) * 1e308)
        spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=0.1, method="fixed"),
                       grid_size=50)
        with np.errstate(over="ignore"):
            fit = fit_pair(wide, spec, jitter_sd=0.0)
        assert message in fit.error
        assert fit.curve is None and fit.loc is None

    @pytest.mark.parametrize("scale_x, scale_y", [(1.0, 1e200), (1e-80, 1.0)])
    def test_a_plug_in_out_of_float_range_is_a_pair_error(self, marks_sample, scale_x,
                                                         scale_y):
        pr = jitter(pair(marks_sample, "mathematics", "reading"), 1e-5, 0)
        fit = fit_pair(PairedSample(x=pr.x * scale_x, y=pr.y * scale_y),
                       FitSpec(loss=LossKind.quadratic(), grid_size=50), jitter_sd=0.0)
        assert "out of the plug-in's float range" in fit.error
        assert fit.bandwidth is None and fit.loc is None

    @pytest.mark.parametrize("jitter_sd", [1e-5, 0.0])
    @pytest.mark.parametrize("loss", [LossKind.quadratic(), LossKind.median()])
    def test_constant_y_is_fitted_raw_and_has_loc_zero(self, jitter_sd, loss,
                                                      fallback_warnings):
        # under jitter the curve would follow the noise of the constant y;
        # the raw y gives a constant curve, as at jitter_sd = 0
        x = np.linspace(0.05, 0.95, 30) ** 2
        y = np.full(30, 0.4)
        fit = fit_pair(PairedSample(x=x, y=y), FitSpec(loss=loss, grid_size=200),
                       jitter_sd=jitter_sd, seed=5)
        [message] = fallback_warnings()
        assert "y is constant" in message
        assert fit.error is None
        assert fit.bandwidth.diagnostics.fallback
        assert (fit.sample.y == y).all()
        assert abs(fit.loc) <= 1e-16
        if loss.kind == "quantile":
            assert (fit.curve.values == 0.4).all() and fit.loc == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 60),
        h=st.sampled_from((0.05, 0.1, 0.3)),
        c=st.floats(0.05, 1.0),
        where=st.floats(0.0, 1.0),
    )
    def test_loc_is_homogeneous_and_shift_invariant_in_y(self, seed, n, h, c, where):
        # at a fixed bandwidth the mean curve of (x, c y + a) is c times the
        # curve of (x, y) plus a, and the LOC is positively homogeneous and
        # shift invariant; x is tie-free and c y + a stays in [0, 1]
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        y = np.clip(0.5 + 0.3 * np.sin(6.0 * x) + rng.normal(0.0, 0.2, n), 0.0, 1.0)
        a = -c * y.min() + where * (1.0 - c * np.ptp(y))
        spec = FitSpec(loss=LossKind.quadratic(),
                       bandwidth=BandwidthEstimate(value=h, method="fixed"), grid_size=200)
        base = fit_pair(PairedSample(x=x, y=y), spec, jitter_sd=0.0)
        assume(base.error is None)  # a gap in x wider than the kernel's reach
        moved = fit_pair(PairedSample(x=x, y=c * y + a), spec, jitter_sd=0.0)
        # the curves agree to rounding, about 1e-16 of each value, which can
        # move the LOC sum by about as much in absolute terms
        assert moved.loc == pytest.approx(c * base.loc, rel=1e-9, abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 120),
           c=st.floats(0.05, 20.0), a=st.floats(-2.0, 2.0))
    def test_loc_is_homogeneous_under_the_plug_in_bandwidth(self, seed, n, c, a):
        # y -> c y + a keeps the plug-in bandwidth up to rounding, so the
        # curves of both losses, and the LOC, follow the map; x is tie-free,
        # so the median's optimal line is unique
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        y = np.clip(0.5 + 0.3 * np.sin(6.0 * x) + rng.normal(0.0, 0.2, n), 0.0, 1.0)
        for loss in (LossKind.quadratic(), LossKind.median()):
            spec = FitSpec(loss=loss, grid_size=200)
            base = fit_pair(PairedSample(x=x, y=y), spec, jitter_sd=0.0)
            moved = fit_pair(PairedSample(x=x, y=c * y + a), spec, jitter_sd=0.0)
            assert (base.error, moved.error) == (None, None)
            assert moved.bandwidth.value == pytest.approx(base.bandwidth.value, rel=1e-9)
            assert moved.loc == pytest.approx(c * base.loc, rel=1e-9)
