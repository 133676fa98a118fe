"""Local linear scatterplot smoothing under quadratic or check loss.

At each evaluation point x0 the estimate solves

    min over (b0, b1) of  sum_i L(y_i - b0 - b1 (x_i - x0)) * K((x_i - x0) / b)

with K the standard normal kernel.  The fitted value at x0 is b0.

Quadratic loss L(r) = r^2 targets the conditional mean and has the
closed-form weighted least squares solution.

Check loss L(r) = r (tau - 1{r < 0}) targets the conditional tau-quantile
(tau = 1/2: the median).  The problem is a linear program in (b0, b1), so an
optimum is attained by a line through two observations with distinct x.
It is found exactly by pivoting descent over such lines [4, 3]:

1. Rotation about a pivot observation k.  A line through k with slope b1
   has residuals r_i = a_i (s_i - b1), where a_i = x_i - x_k and
   s_i = (y_i - y_k) / a_i.  Its objective is a weighted check loss in b1,
   with weights c_i = w_i |a_i| and level tau (a_i > 0) or 1 - tau
   (a_i < 0).  So the best slope is the smallest s_(j) whose cumulative
   weight reaches sum_i c_i (tau if a_i > 0 else 1 - tau).
2. Descent.  The line through k and that observation j is taken when it
   lowers the objective strictly, and j becomes the next pivot.  The first
   pivot is the observation on the best line of weighted least-squares
   slope.
3. Optimality.  When a rotation brings no strict decrease, the line is
   optimal against rotations about the points tried on it.  The line is a
   vertex, and a vertex is optimal when no rotation about any observation
   on it descends: those rotations span every direction in (b0, b1).  Tied
   data put more than two observations on a line, and stopping at the two
   that define it can leave the fit far above the optimum.  So the one-sided
   rates of change of the objective are computed, from prefix sums, for the
   rotations about every observation on the line.  The descent rotates about
   the steepest descending one not yet tried, and stops when there is none.
   It also stops at once when the objective is zero.

An observation lies on the line when its residual is zero up to rounding.
There are finitely many lines through two observations, the objective
decreases strictly at every move, and each line has finitely many points to
try.  So no line is visited twice and the descent terminates without an
iteration cap or a step tolerance.  The returned coefficients are computed
from the two observations that define the final line, anchored on the one
nearer x0.  The fitted value is therefore a function of the sample, x0,
the bandwidth and the loss alone, and ``fit_curve`` is ``local_linear_fit``
on a grid, bit for bit.

References
----------
.. [1] Fan, J. (1992). "Design-adaptive nonparametric regression."
       *JASA* 87: 998-1004.
.. [2] Wand, M. P. and Jones, M. C. (1995). *Kernel Smoothing.*
       Chapman & Hall.
.. [3] Koenker, R. (2005). *Quantile Regression.* Cambridge University Press.
       (Chapter 6: the simplex-type descent for the L1 / check-loss line.)
.. [4] Wesolowsky, G. O. (1981). "A new descent algorithm for the least
       absolute value regression problem." *Comm. Statist. B* 10: 479-491.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import BandwidthEstimate
from .dataset import PairedSample

__all__ = [
    "SmoothingError",
    "LossKind",
    "FitSpec",
    "FittedCurve",
    "local_linear_fit",
    "fit_curve",
    "check_loss_objective",
]

# Gaussian kernel weights below this are treated as exactly zero; the kernel
# never vanishes, so truncation is what bounds the working set.
WEIGHT_FLOOR = 1e-12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SmoothingError(ValueError):
    """Raised when a local fit is not identifiable at an evaluation point."""


@dataclass(frozen=True)
class LossKind:
    """Quadratic loss (conditional mean) or check loss at level tau."""

    kind: str  # "quadratic" | "quantile"
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "quadratic":
            if self.tau is not None:
                raise ValueError("quadratic loss takes no tau")
        elif self.kind == "quantile":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("quantile loss needs tau in (0, 1)")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def quadratic(cls) -> "LossKind":
        return cls(kind="quadratic")

    @classmethod
    def quantile(cls, tau: float) -> "LossKind":
        return cls(kind="quantile", tau=tau)

    @classmethod
    def median(cls) -> "LossKind":
        return cls(kind="quantile", tau=0.5)


@dataclass(frozen=True)
class FitSpec:
    """How to fit: loss, bandwidth, and grid resolution.

    ``bandwidth=None`` means "select automatically"; ``fit_curve`` itself
    requires a concrete estimate, the pipeline helpers fill it in.
    """

    loss: LossKind
    bandwidth: BandwidthEstimate | None = None
    grid_size: int = 1000

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")


@dataclass(frozen=True)
class FittedCurve:
    """A curve evaluated on an equispaced grid spanning the data range."""

    grid: np.ndarray
    values: np.ndarray
    spec: FitSpec

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-d and of equal length")
        if grid.size != self.spec.grid_size:
            raise ValueError("grid length must equal spec.grid_size")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def _kernel_weights(x: np.ndarray, x0: float, bandwidth: float) -> np.ndarray:
    u = (x - x0) / bandwidth
    w = np.exp(-0.5 * u * u) / _SQRT_2PI
    w[w < WEIGHT_FLOOR] = 0.0
    return w


def _solve_wls(d: np.ndarray, y: np.ndarray, w: np.ndarray, x0: float) -> tuple[float, float]:
    """Closed-form 2-parameter weighted least squares on the design (1, d)."""
    s0 = float(w.sum())
    s1 = float(w @ d)
    s2 = float(w @ (d * d))
    t0 = float(w @ y)
    t1 = float(w @ (d * y))
    det = s0 * s2 - s1 * s1
    if det <= 0.0 or det <= 1e-13 * s0 * s2:
        raise SmoothingError(f"singular weighted design at x0 = {x0}")
    beta1 = (s0 * t1 - s1 * t0) / det
    beta0 = (t0 - s1 * beta1) / s0
    return beta0, beta1


def check_loss_objective(
    sample: PairedSample, x0: float, bandwidth: float, tau: float, beta0: float, beta1: float
) -> float:
    """Kernel-weighted check-loss objective at (beta0, beta1).

    Exposed so optimization quality can be certified from outside: the value
    at the minimizer returned by ``local_linear_fit`` should not exceed the
    value at any other candidate.
    """
    w = _kernel_weights(sample.x, x0, bandwidth)
    r = sample.y - beta0 - beta1 * (sample.x - x0)
    return float(np.sum(w * r * (tau - (r < 0.0))))


# An observation lies on a line when its residual is zero up to rounding: at
# most this multiple of the largest magnitude the residuals are computed
# from.  Counting a point that is merely close costs a little time, never the
# optimum; exactly collinear points of tied data sit many orders below it.
_ON_LINE = 2.0**-40


def _rotate(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, k: int
) -> tuple[int, float, float, np.ndarray, np.ndarray]:
    """Best line through observation k.

    Returns the partner j, the slope, the objective, the residuals and
    a = x - x[k].  Differences are taken in x, not in x - x0, so the slope of
    two close observations keeps its digits; it is symmetric in k and j.
    """
    a = x - x[k]
    dy = y - y[k]
    rows = np.flatnonzero(a)
    ar = a[rows]
    slopes = dy[rows] / ar
    c = w[rows] * np.abs(ar)
    cut = tau * float(c.sum()) + (1.0 - 2.0 * tau) * float(c[ar < 0.0].sum())
    order = np.argsort(slopes)
    pos = order[min(int(np.searchsorted(np.cumsum(c[order]), cut)), len(order) - 1)]
    b1 = float(slopes[pos])
    r = dy - b1 * a
    return int(rows[pos]), b1, float(w @ np.maximum(tau * r, (tau - 1.0) * r)), r, a


def _descending_pivot(
    w: np.ndarray, tau: float, a: np.ndarray, r: np.ndarray, on_line: float,
    tried: list[float],
) -> int | None:
    """A point of a line about which a rotation lowers the objective.

    The line has residuals r, a = x - x[k] for a point k on it, and the rows
    with |r| <= on_line lie on it.  Rotating the line about such a row i
    changes the objective at two one-sided rates, computed here for every i
    at once from prefix sums.  These rotations span every direction in
    (b0, b1), so the line is optimal when no rate is negative, and None is
    returned.  Otherwise the row with the steepest rate is returned, skipping
    rows whose a is in ``tried``.
    """
    on = np.flatnonzero(np.abs(r) <= on_line)
    if all(a[i] in tried for i in on):  # typically just the two defining points
        return None
    g = w * np.where(r > 0.0, tau, tau - 1.0)  # derivative of each row's loss in r
    g[on] = 0.0
    g0, g1 = float(g.sum()), float(g @ a)
    on = on[np.argsort(a[on])]
    ai = a[on]
    cw = np.cumsum(w[on])
    cwa = np.cumsum(w[on] * ai)
    left = ai * cw - cwa  # sum of w_l (a_i - a_l) over rows on the line left of i
    right = (cwa[-1] - cwa) - ai * (cw[-1] - cw)
    pull = g1 - ai * g0  # sum of g_l (a_l - a_i) over rows off the line
    rate = np.minimum((1.0 - tau) * right + tau * left - pull,
                      tau * right + (1.0 - tau) * left + pull)
    for i in np.argsort(rate):
        if rate[i] >= 0.0:
            return None
        if ai[i] not in tried:
            return int(on[i])
    return None


def _check_loss_line(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, k: int
) -> tuple[int, int, float]:
    """Pivoting descent from pivot k to an optimal line: (p, q, slope).

    ``x``, ``y`` and ``w`` hold the weighted rows only, and at least two
    distinct values of ``x``.
    """
    y_scale = 2.0 * float(np.abs(y).max())
    x_span = float(x.max() - x.min())
    best_f = math.inf
    while True:
        j, b1, f, r, a = _rotate(x, y, w, tau, k)
        if f < best_f:
            best, best_f = (k, j, b1), f
            if f == 0.0:
                break
            line = (a, r, _ON_LINE * (y_scale + abs(b1) * x_span))
            tried = [0.0]  # a of the pivot itself: the line is best through k
            k = j
            continue
        tried.append(line[0][k])
        k = _descending_pivot(w, tau, *line, tried)
        if k is None:
            break
    return best


def _start(d: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, x0: float) -> int:
    """A first pivot: the observation on the best line of least-squares slope.

    With the slope fixed, the best intercept is the weighted tau-quantile of
    y - slope * d, which is attained at an observation.  Any start reaches
    the optimum; this one is usually on or next to the optimal line.
    """
    try:
        slope = _solve_wls(d, y, w, x0)[1]
    except SmoothingError:  # a nearly singular design: slope 0 starts as well
        slope = 0.0
    order = np.argsort(y - slope * d)
    cum = np.cumsum(w[order])
    return int(order[np.searchsorted(cum, tau * cum[-1])])


def local_linear_fit(
    sample: PairedSample,
    x0: float,
    bandwidth: float,
    loss: LossKind,
) -> tuple[float, float]:
    """Local linear coefficients at x0; the fitted value is beta0.

    Quadratic loss is solved in closed form.  Check loss is solved exactly by
    the pivoting descent of the module docstring, started from the
    observation on the best line whose slope is the weighted least-squares
    slope.  The result is a line through two observations that no other
    line beats; the optimum is computed exactly, the coefficients are that
    line rounded to floating point.  Where several lines attain the minimum
    (tied data), the one the descent reaches first is returned; the result
    is a function of (sample, x0, bandwidth, loss) alone.

    Raises SmoothingError when fewer than two distinct x values carry kernel
    weight at x0, or, for quadratic loss, when the weighted design is
    singular.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    w = _kernel_weights(sample.x, x0, bandwidth)
    rows = np.flatnonzero(w)
    x = sample.x[rows]
    if not x.size or x.min() == x.max():
        raise SmoothingError(
            f"fewer than 2 distinct observations carry kernel weight at x0 = {x0}"
        )
    if loss.kind == "quadratic":
        return _solve_wls(sample.x - x0, sample.y, w, x0)

    y = sample.y[rows]
    w = w[rows]
    p, q, b1 = _check_loss_line(x, y, w, loss.tau, _start(x - x0, y, w, loss.tau, x0))
    # anchor on the point nearer x0: the value then depends on the line only
    if (abs(x[p] - x0), x[p]) > (abs(x[q] - x0), x[q]):
        p = q
    return float(y[p] - b1 * (x[p] - x0)), b1


def fit_curve(sample: PairedSample, spec: FitSpec) -> FittedCurve:
    """Evaluate the local fit on an equispaced grid over [min(x), max(x)].

    No extrapolation is attempted beyond the data range, and fitted values
    are never clamped here; clamping to [0, 1] is a presentation concern.
    """
    if sample.n < 4:
        raise ValueError("curve fitting needs at least 4 observations")
    if spec.bandwidth is None:
        raise ValueError("spec.bandwidth must be set before fitting")
    grid = np.linspace(float(sample.x.min()), float(sample.x.max()), spec.grid_size)
    values = np.empty(spec.grid_size)
    for i, x0 in enumerate(grid):
        try:
            values[i], _ = local_linear_fit(sample, float(x0), spec.bandwidth.value, spec.loss)
        except SmoothingError as exc:
            raise SmoothingError(f"grid point {i}: {exc}") from exc
    return FittedCurve(grid=grid, values=values, spec=spec)
