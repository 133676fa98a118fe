"""Classical association coefficients and their bridge to the LOC index.

Everything here that touches ranks assumes a tie-free sample: ranks of n
distinct values are a permutation of 1..n, which the identities below rely
on.  Tied data should be passed through ``dataset.jitter`` first; the rank
operations raise ``TiesError`` otherwise rather than silently mid-ranking.

The bridge: sorting the pairs by x and reading off the y ranks r_1..r_n
yields the rank step function t -> r_i / n on ((i-1)/n, i/n].  Its LOC index
equals the finite-population quantity I = (1/(2 n^3)) sum (i - r_i)^2, which
is exactly the expectation entering Liebscher's zeta under the quadratic
psi -- so zeta is the LOC index of the *rank-based* scatterplot, while the
LOC matrix entries come from the raw-data scatterplot.

Those entries come from ``fit_pair``, the one LOC pipeline for an ordered
pair: jitter with the pair's seed (``pair_seed``), plug-in or fixed
bandwidth, local linear mean or median curve, exact LOC index of its step
function.  It returns a ``PairFit`` with every stage's result, or the
message of the stage that failed.  ``loc_matrix`` runs it over every
ordered column pair, and each CLI command that fits a curve calls it, so
a pair gets the same numbers everywhere.

References
----------
.. [1] Liebscher, E. (2014). "Copula-based dependence measures."
       *Dependence Modeling* 2: 49-64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import BandwidthError, BandwidthEstimate, dpi_bandwidth, median_adjust
from .dataset import NormalizedSample, PairedSample, jitter, pair
from .rearrangement import StepFunction, loc_index, step_from_curve
from .smoothing import FitSpec, FittedCurve, SmoothingError, fit_curve

__all__ = [
    "TiesError",
    "Ranks",
    "PsiFunction",
    "LocMatrix",
    "PairFit",
    "pearson",
    "empirical_ranks",
    "spearman",
    "psi_norm_constant",
    "liebscher_zeta",
    "finite_population_I",
    "rank_step_function",
    "pair_seed",
    "fit_pair",
    "loc_matrix",
]


class TiesError(ValueError):
    """Raised when ranks are requested for tied data.

    Add negligible noise first (``dataset.jitter`` with sd around 1e-5); that
    breaks the ties without practically changing the values.
    """


@dataclass(frozen=True)
class Ranks:
    """Empirical cdf values and the induced y ranks after ordering by x.

    ``fx[i] = rank(x_i)/n`` and ``gy[i] = rank(y_i)/n`` in original row
    order; ``induced[i]`` is n times the empirical y-cdf at the y value paired
    with the i-th smallest x, a permutation of 1..n.
    """

    fx: np.ndarray
    gy: np.ndarray
    induced: np.ndarray


@dataclass(frozen=True)
class PsiFunction:
    """Non-negative, symmetric, psi(0) = 0 distance shape on [-1, 1].

    Two kinds: ``"quadratic"``, psi(u) = u^2 / 2, and ``"absolute"``,
    psi(u) = |u|; any other kind raises ``ValueError``.
    ``c_psi = 2 * integral (1-u) psi(u) du`` over [0, 1] is the normalizer
    that calibrates Liebscher's zeta to 1 under perfect co-monotonicity
    (``psi_norm_constant``).
    """

    kind: str  # "quadratic" | "absolute"

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "absolute"):
            raise ValueError(
                f"unknown psi kind {self.kind!r}; expected 'quadratic' or 'absolute'"
            )

    @classmethod
    def quadratic(cls) -> "PsiFunction":
        """psi(u) = u^2 / 2, normalizer 1/12."""
        return cls(kind="quadratic")

    @classmethod
    def absolute(cls) -> "PsiFunction":
        """psi(u) = |u|, normalizer 1/3."""
        return cls(kind="absolute")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "quadratic":
            return np.square(u) / 2.0
        return np.abs(u)


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation; rejects constant coordinates."""
    dx = sample.x - sample.x.mean()
    dy = sample.y - sample.y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("correlation undefined for a constant coordinate")
    return float(dx @ dy) / math.sqrt(vx * vy)


def _dense_ranks(values: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n of tie-free values, and the order that sorts them.

    Tie-free values have one sorted order, so numpy's default sort, which
    need not be stable, gives it.  Ties raise ``TiesError``: equal values end
    up adjacent under any sort, so the check after it finds them.
    """
    order = np.argsort(values)
    ordered = values[order]
    if np.any(ordered[1:] == ordered[:-1]):
        raise TiesError(
            f"tied values in {label}; jitter the sample (sd ~ 1e-5) before ranking"
        )
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks, order


def empirical_ranks(sample: PairedSample) -> Ranks:
    """Empirical cdf evaluations and induced y ranks for a tie-free sample."""
    rx, x_order = _dense_ranks(sample.x, "x")
    ry, _ = _dense_ranks(sample.y, "y")
    n = sample.n
    return Ranks(fx=rx / n, gy=ry / n, induced=ry[x_order])


def spearman(sample: PairedSample) -> float:
    """Rank correlation: the Pearson correlation of (F_n(x_i), G_n(y_i))."""
    ranks = empirical_ranks(sample)
    return pearson(PairedSample(x=ranks.fx, y=ranks.gy))


def psi_norm_constant(psi: PsiFunction) -> float:
    """The normalizer c_psi = 2 * integral over [0,1] of (1-u) psi(u) du.

    In closed form: 1/12 for the quadratic psi and 1/3 for the absolute one.
    """
    return 1.0 / 12.0 if psi.kind == "quadratic" else 1.0 / 3.0


def liebscher_zeta(sample: PairedSample, psi: PsiFunction) -> float:
    """Coefficient of monotonically increasing dependence on ranks.

    zeta = 1 - mean(psi(F_n(x_i) - G_n(y_i))) / c_psi.  Symmetric in the two
    roles, unlike the LOC index.
    """
    ranks = empirical_ranks(sample)
    c = psi_norm_constant(psi)
    return 1.0 - float(np.mean(psi(ranks.fx - ranks.gy))) / c


def finite_population_I(sample: PairedSample) -> float:
    """The quantity (1/(2 n^3)) * sum (i - r_i)^2 over the induced ranks.

    This is the empirical version of E[(F(X) - G(Y))^2] / 2; it vanishes
    exactly for co-monotone data.  Computed in integer arithmetic.
    """
    ranks = empirical_ranks(sample)
    n = sample.n
    i = np.arange(1, n + 1, dtype=np.int64)
    num = int(np.sum((i - ranks.induced) ** 2))
    return num / (2.0 * n**3)


def rank_step_function(sample: PairedSample) -> StepFunction:
    """Step function t -> r_i / n built from the induced ranks.

    Its ``loc_index`` reproduces ``finite_population_I`` exactly, which ties
    the rank-based coefficients to the LOC machinery.
    """
    ranks = empirical_ranks(sample)
    return StepFunction(taus=ranks.induced / sample.n)


@dataclass(frozen=True)
class LocMatrix:
    """Asymmetric matrix of LOC values over all ordered column pairs.

    ``entries[i, j]`` is the LOC of (column i explaining column j), unscaled;
    presentation layers multiply by 1000.  Failed pairs carry NaN and an
    explanation in ``failures``.
    """

    labels: tuple[str, ...]
    entries: np.ndarray
    loss_kind: str
    failures: dict[tuple[str, str], str]


@dataclass(frozen=True)
class PairFit:
    """One ordered pair through the LOC pipeline.

    ``sample`` is the jittered pair the curve is fitted to, ``bandwidth`` the
    estimate used, ``curve`` the fitted curve and ``loc`` the exact LOC index
    of its step function.  When bandwidth selection or fitting fails,
    ``error`` holds the message, ``curve`` and ``loc`` are None, and
    ``bandwidth`` is None if its selection was the stage that failed.
    """

    sample: PairedSample
    bandwidth: BandwidthEstimate | None = None
    curve: FittedCurve | None = None
    loc: float | None = None
    error: str | None = None


def pair_seed(seed: int, i: int, j: int) -> int:
    """Jitter seed of the ordered pair (column i, column j) under master ``seed``.

    One master seed gives an independent but reproducible substream per
    pair, so a pair gets the same jitter in every command.
    """
    return int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])


def fit_pair(pr: PairedSample, spec: FitSpec, jitter_sd: float = 1e-5,
             seed: int = 0) -> PairFit:
    """Jitter, bandwidth, curve and LOC index of one ordered pair.

    The bandwidth is the fixed estimate carried by ``spec`` if there is one;
    otherwise the plug-in estimate of the jittered pair, Yu-Jones adjusted
    for quantile loss.  A ``BandwidthError``, ``SmoothingError`` or other
    ``ValueError`` from bandwidth selection or fitting is returned in
    ``PairFit.error``, and so is a constant x before jitter, which has no
    curve to fit; a negative ``jitter_sd`` raises.

    A constant y before jitter is fitted as it is, against the jittered x:
    its curve is constant, and a constant curve is non-decreasing, so its LOC
    is 0 up to rounding.  Jittering it would give the curve only the noise
    to follow, and a LOC of that noise.  This is the path ``jitter_sd = 0``
    takes: the plug-in bandwidth falls back ("y is constant"), and
    ``PairFit.sample`` holds the raw y.
    """
    jittered = jitter(pr, jitter_sd, seed)
    if np.ptp(pr.x) == 0.0:  # the jitter alone would spread x, and fit its noise
        return PairFit(sample=jittered, error="x is degenerate (all values equal)")
    if np.ptp(pr.y) == 0.0:
        jittered = PairedSample(x=jittered.x, y=pr.y)
    bw = None
    try:
        if spec.bandwidth is not None and spec.bandwidth.method == "fixed":
            bw = spec.bandwidth
        else:
            bw = dpi_bandwidth(jittered)
            if spec.loss.kind == "quantile":
                bw = median_adjust(bw, spec.loss.tau)
        curve = fit_curve(jittered, replace(spec, bandwidth=bw))
    except (BandwidthError, SmoothingError, ValueError) as exc:
        return PairFit(sample=jittered, bandwidth=bw, error=str(exc))
    return PairFit(sample=jittered, bandwidth=bw, curve=curve,
                   loc=loc_index(step_from_curve(curve)).value)


def loc_matrix(
    sample: NormalizedSample,
    spec: FitSpec,
    jitter_sd: float = 1e-5,
    seed: int = 0,
) -> LocMatrix:
    """LOC of every ordered column pair, each through ``fit_pair``.

    Pair (i, j) is jittered with ``pair_seed(seed, i, j)``.  The diagonal is
    zero by construction.  A failing pair gets NaN and its message in
    ``failures`` and does not stop the others.
    """
    labels = sample.column_names
    if len(labels) < 2:
        raise ValueError("need at least 2 columns for a LOC matrix")
    k = len(labels)
    entries = np.zeros((k, k))
    failures: dict[tuple[str, str], str] = {}
    for i, x_name in enumerate(labels):
        for j, y_name in enumerate(labels):
            if i == j:
                continue
            fit = fit_pair(pair(sample, x_name, y_name), spec, jitter_sd,
                           pair_seed(seed, i, j))
            if fit.error is None:
                entries[i, j] = fit.loc
            else:
                entries[i, j] = np.nan
                failures[(x_name, y_name)] = fit.error
    return LocMatrix(labels=labels, entries=entries, loss_kind=spec.loss.kind,
                     failures=failures)
