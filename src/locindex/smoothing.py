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
   weight reaches cut = sum_i c_i (tau if a_i > 0 else 1 - tau), a weighted
   quantile of the slopes.  It is found by selection [6, 3], not by sorting
   every row: a bracket (lo, hi] whose weight below lo falls short of cut
   and whose weight up to hi reaches it is grown geometrically from a guess,
   the slope of the current line (which passes through k) or, at the first
   rotation, the least-squares slope; each end costs one weighted count,
   and only the rows inside the bracket are sorted.  Rows with a_i = 0 keep
   weight 0 and are never the partner.  Among equal slopes, rows count in
   row order: the partner is the row at which the running weight reaches
   cut, or the last row of positive weight when rounding puts cut above the
   total.  Equal slopes give one line through k; the partner among them
   only decides which point of it the descent rotates about next.
2. Descent.  The line through k and that observation j is taken when it
   lowers the objective strictly, and j becomes the next pivot.  The first
   pivot is the observation on the best line of weighted least-squares
   slope, found by the same selection.
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
the bandwidth and the loss alone.

Both losses are solved on the rows whose kernel weight reaches
``WEIGHT_FLOOR``; the others carry weight zero.  Those rows lie within about
7.31 bandwidths of x0, so ``fit_curve`` sorts the sample by x once per
curve, rows of equal x in their input order, and fits each grid point on its
window: the slice of the sorted rows within ``_REACH`` (that distance plus
1%) of x0, found by binary search [5].  Tie-free x has one sorted order,
which numpy's default sort gives; only tied x needs a stable sort.  The
kernel falls away from x0 on both sides, so the weighted rows of a window
are one contiguous run.  A window of ``_SMALL_WINDOW`` rows or more is
solved on views of that run, the mean by ``_solve_wls`` and the check loss
by ``local_linear_fit`` on the window; smaller windows are solved in lock
step (below), for both losses.  Either way the weighted rows reach the
solvers in the order of the sorted sample, and ``fit_curve`` is
``local_linear_fit`` on the sample stably sorted by x at each grid point,
bit for bit.  On tie-free x that sorted sample, and so the curve, does not
depend on the order of the input rows.  Against ``local_linear_fit`` on the
unsorted sample, the mean can differ in the last bits, because its sums add
the rows in another order, and on tied data the check-loss descent can reach
another of several optimal lines.  On tie-free data the check-loss optimum
is unique and the value depends on the line only, so there the median curve
equals ``local_linear_fit`` on the unsorted sample too.

Lock step.  ``fit_curve`` solves all grid points whose windows hold fewer
than ``_SMALL_WINDOW`` rows together, in blocks of ``_BLOCK`` points, for
either loss, instead of solving each on its own; the time of such a point
goes to numpy call overhead, not arithmetic.  The windows are the rows of
(points x window) arrays, padded to the widest, where padding and rows below
``WEIGHT_FLOOR`` get weight 0.  A block's solver returns the values it
solves and nan at the points it hands back, which the per-point path then
solves.  One overflow guard covers each block: the kernel weights of far
padding, the slopes at a pivot's x and the sums of a point that is handed
back may overflow or divide by zero, and none of them decides a value.

Both losses take least-squares sums from ``_row_wls``, which applies
``_solve_wls`` to each row of (points x run) arrays.  Its sums are a row-wise
sum and stacked ``np.matmul`` products of a row by a column, which are BLAS
dot products of each row, as ``_solve_wls``'s are; so the sums, the
determinant test and the coefficients are the same doubles.  Padded rows
would not give them, since a dot's rounding depends on its length.  The mean
groups the points by the length of their run of weighted rows and gathers
each group's runs into such arrays, one row per point.  A point is handed
back to the per-point path when its weighted rows are not one run, when
they are fewer than two or share one x, or when its design fails
``_solve_wls``'s determinant test; that path raises where
``local_linear_fit`` does.

For the check loss, rows of c = 0 get the slope +inf, so they sort last and
are never a partner.  Each step rotates every unfinished point about its
pivot, taking the weighted quantile of step 1 by a row-wise sort of the
slopes and their running weight, and takes a line that lowers the objective
strictly.  The kernel weights, slopes, residuals and on-line test are the
doubles of the scalar descent; equal slopes may sort, and the cut and the
objective be summed, in another order.  A point stops when the rotation
about the newer point of its best line brings no strict decrease.  That line
is optimal, and the only optimal one when it holds no weighted row besides
the two that define it and neither rotation about those two ties two lines,
with a running weight within ``_ON_LINE`` of the total from the cut (as
equal weights at a tied x can be): near the line every direction is a
rotation about one of the two.  The scalar descent reaches the only optimal
line from any start, so the start (``_start`` up to rounding: the slope
from ``_row_wls`` on the padded windows, 0 where its determinant test fails,
and the weighted quantile at that slope) only steers the path, and the
value, anchored as in ``local_linear_fit``, is the same double.  A point
takes the lock step by its window size alone, and is handed back to
``local_linear_fit`` on its window when its slopes could overflow, when its
first objective is not finite, when its best line holds another weighted row
(tied y, or a copy of the pivot or the partner), or when two lines tie, as
all lines through the pivot do where the window holds fewer than two
distinct weighted x.  So ``fit_curve`` raises where ``local_linear_fit``
does.

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
.. [5] Fan, J. and Marron, J. S. (1994). "Fast implementations of
       nonparametric curve estimators." *JCGS* 3: 35-56.
.. [6] Bloomfield, P. and Steiger, W. L. (1983). *Least Absolute
       Deviations: Theory, Applications, and Algorithms.* Birkhauser.
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

# |u| at which the kernel falls to WEIGHT_FLOOR (about 7.31), padded by 1% so
# that no rounding of (x - x0) / h leaves a weighted row outside a window
_REACH = 1.01 * math.sqrt(-2.0 * math.log(WEIGHT_FLOOR * _SQRT_2PI))


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
    # exp(-0.5 * u * u) / sqrt(2 pi) with u = (x - x0) / h, computed in place
    # in the formula's order of operations, so the doubles are the formula's
    u = x - x0
    u /= bandwidth
    w = -0.5 * u
    w *= u
    np.exp(w, out=w)
    w /= _SQRT_2PI
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
    if not det > 1e-13 * s0 * s2:  # s0 * s2 >= 0; a nan from overflowing sums fails too
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


# A residual, or a running weight's distance from its cut, is zero up to
# rounding when at most this multiple of the largest magnitude it is computed
# from.  Counting a near point or tie costs a little time, never the optimum;
# exactly collinear points and exact ties of tied data sit many orders below.
_ON_LINE = 2.0**-40


# The one threshold between the lock step and the per-point path, for both
# losses.  ``fit_curve`` solves the grid points whose windows hold fewer rows
# than this together, in lock step (``_mean_lock_step`` for the mean,
# ``_lock_step`` for the check loss), where a point's time goes to numpy call
# overhead; larger windows take ``_solve_wls`` (mean) or ``local_linear_fit``
# and its selection (check loss), one grid point at a time.
_SMALL_WINDOW = 64

# The lock step takes this many grid points at a time, for either loss, which
# bounds its (points x window) arrays however large the grid.
_BLOCK = 128

# A bracket of the selection starts this many typical slope spacings wide
# (the spread of the values over their count) and widens by _WIDEN at each
# step; after _MAX_WIDENINGS steps every row is sorted instead.
_FIRST_BRACKET = 16.0
_WIDEN = 4.0
_MAX_WIDENINGS = 24


def _select(v: np.ndarray, c: np.ndarray, cut: float, guess: float, spread: float) -> int:
    """Row of the smallest v whose cumulative weight c, in order of v, reaches cut.

    Equal values count in row order.  Rows with c = 0 are never returned, so
    their v may be inf or nan; when rounding puts ``cut`` above the total
    weight, the largest v of positive weight is returned.  ``guess`` should be
    near the answer and ``spread`` should be about the c-weighted mean of
    |v - guess|; both affect the time taken, never the result.

    The answer is bracketed in (lo, hi] with W(v <= lo) < cut <= W(v <= hi),
    one weighted count (a masked dot product) per end, starting at the guess
    and widening geometrically; only the rows inside the bracket are sorted.
    """
    step = _FIRST_BRACKET * spread / len(v)
    lo = hi = guess
    at_lo_mask = at_hi_mask = v <= guess
    at_lo = at_hi = float(np.dot(c, at_lo_mask))
    for _ in range(_MAX_WIDENINGS if step > 0.0 else 0):
        if at_hi < cut:
            lo, at_lo, at_lo_mask = hi, at_hi, at_hi_mask
            hi += step
            at_hi_mask = v <= hi
            at_hi = float(np.dot(c, at_hi_mask))
        elif at_lo >= cut:
            hi, at_hi, at_hi_mask = lo, at_lo, at_lo_mask
            lo -= step
            at_lo_mask = v <= lo
            at_lo = float(np.dot(c, at_lo_mask))
        else:
            inside = np.flatnonzero(at_hi_mask > at_lo_mask)
            return _sorted_select(v, c, cut, inside, at_lo)
        step *= _WIDEN
    return _sorted_select(v, c, cut, np.arange(len(v)), 0.0)


def _sorted_select(v: np.ndarray, c: np.ndarray, cut: float, rows: np.ndarray,
                   below: float) -> int:
    """``_select`` among ``rows``, which hold every row whose running weight
    can reach ``cut``; the rows of smaller v weigh ``below``."""
    order = rows[np.argsort(v[rows], kind="stable")]
    c_order = c[order]
    pos = int(np.searchsorted(below + np.cumsum(c_order), cut))
    if pos == len(order):  # cut above the total weight by rounding
        pos = int(np.flatnonzero(c_order)[-1])
    return int(order[pos])


def _rotate(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, k: int, guess: float,
    spread: float,
) -> tuple[int, float, float, np.ndarray, np.ndarray]:
    """Best line through observation k.

    Returns the partner j, the slope, the objective, the residuals and
    a = x - x[k].  Differences are taken in x, not in x - x0, so the slope of
    two close observations keeps its digits; it is symmetric in k and j.
    ``guess`` is a slope near the best one and ``spread`` about the weighted
    sum of absolute residuals of the line through k of that slope; they only
    steer ``_select``.
    """
    a = x - x[k]
    dy = y - y[k]
    c = w * np.abs(a)  # 0 where a = 0, whose slope is inf or nan
    total = float(c.sum())
    cut = tau * total + (1.0 - 2.0 * tau) * float(np.dot(c, a < 0.0))
    slopes = dy / a
    j = _select(slopes, c, cut, guess, spread / total)
    b1 = float(slopes[j])
    r = dy - b1 * a
    return int(j), b1, float(w @ np.maximum(tau * r, (tau - 1.0) * r)), r, a


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


# a slope too steep for a float is +-inf, which sorts where the true one
# belongs; a line whose objective overflows is never a descent
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _check_loss_line(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, x0: float,
) -> tuple[int, int, float]:
    """Pivoting descent from ``_start``'s pivot to an optimal line: (p, q, slope).

    ``x``, ``y`` and ``w`` hold the weighted rows only, and at least two
    distinct values of ``x``.
    """
    k, guess, spread = _start(x - x0, y, w, tau, x0)
    y_scale = 2.0 * float(np.abs(y).max())
    x_span = float(x.max() - x.min())
    best_f = math.inf
    while True:
        j, b1, f, r, a = _rotate(x, y, w, tau, k, guess, spread)
        if f < best_f:
            best, best_f = (k, j, b1), f
            if f == 0.0:
                break
            line = (a, r, _ON_LINE * (y_scale + abs(b1) * x_span))
            tried = [0.0]  # a of the pivot itself: the line is best through k
            # every later pivot is on this line: its slope guesses the next
            # rotation's, and 2f (exact at tau = 1/2) sizes the bracket
            k, guess, spread = j, b1, 2.0 * f
            continue
        if best_f == math.inf:  # the first line's objective is inf or nan
            raise SmoothingError("check-loss objective overflows")
        tried.append(line[0][k])
        k = _descending_pivot(w, tau, *line, tried)
        if k is None:
            break
    return best


def _start(
    d: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, x0: float
) -> tuple[int, float, float]:
    """A first pivot: the observation on the best line of least-squares slope.

    With the slope fixed, the best intercept is the weighted tau-quantile of
    y - slope * d, which is attained at an observation.  Any start reaches
    the optimum; this one is usually on or next to the optimal line.
    Returns the pivot, the slope and the weighted sum of absolute deviations
    of y - slope * d from their weighted mean, which steer the first
    rotation's selection.
    """
    try:
        slope = _solve_wls(d, y, w, x0)[1]
    except SmoothingError:  # a nearly singular design: slope 0 starts as well
        slope = 0.0
    v = y - slope * d
    total = float(w.sum())
    mean = float(w @ v) / total
    spread = float(w @ np.abs(v - mean))
    return _select(v, w, tau * total, mean, spread / total), slope, spread


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
    is a function of (sample, x0, bandwidth, loss) alone.  Both losses see
    only the rows that carry kernel weight, in row order, so rows without
    weight can be left out of ``sample`` without changing a bit.

    Raises SmoothingError when fewer than two distinct x values carry kernel
    weight at x0, when quadratic loss has a singular (or overflowing) design,
    and when the check-loss objective overflows.
    """
    if not bandwidth > 0:  # nan too
        raise ValueError("bandwidth must be > 0")
    x, y, w = _weighted_rows(sample.x, sample.y, x0, bandwidth)
    if not x.size or x.min() == x.max():
        raise _too_few(x0)
    if loss.kind == "quadratic":
        return _solve_wls(x - x0, y, w, x0)

    p, q, b1 = _check_loss_line(x, y, w, loss.tau, x0)
    # anchor on the point nearer x0: the value then depends on the line only
    if (abs(x[p] - x0), x[p]) > (abs(x[q] - x0), x[q]):
        p = q
    return float(y[p] - b1 * (x[p] - x0)), b1


def _too_few(x0: float) -> SmoothingError:
    return SmoothingError(
        f"fewer than 2 distinct observations carry kernel weight at x0 = {x0}"
    )


def _weighted_rows(
    x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of (x, y) that carry kernel weight at x0, in row order, and
    their weights.

    On rows sorted by x the kernel falls away from x0 on both sides, so these
    rows are one contiguous run, returned as views; rows that are not one
    run, in any order or where rounding breaks it, are gathered instead.
    """
    w = _kernel_weights(x, x0, bandwidth)
    weighted = w != 0.0
    first = int(weighted.argmax())
    end = first + int(np.count_nonzero(weighted))
    if weighted[first:end].all():
        return x[first:end], y[first:end], w[first:end]
    rows = np.flatnonzero(weighted)
    return x[rows], y[rows], w[rows]


def _windows(
    xs: np.ndarray, ys: np.ndarray, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows xs[lo:hi], ys[lo:hi] of an x-sorted sample at the grid
    points x0 as the rows of (points x window) arrays, padded to the widest
    with the sorted rows that follow: x, y and the kernel weights, 0 on the
    padding."""
    col = np.arange(int((hi - lo).max()))
    rows = np.minimum(lo[:, None] + col, len(xs) - 1)
    x, y = xs[rows], ys[rows]
    w = _kernel_weights(x, x0[:, None], h)
    w[col >= (hi - lo)[:, None]] = 0.0
    return x, y, w


def _row_wls(
    d: np.ndarray, y: np.ndarray, w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_solve_wls`` on each row of C-contiguous (points x run) arrays:
    (beta0, beta1, regular), where ``regular`` is False at the rows on which
    ``_solve_wls`` raises; the coefficients of those rows mean nothing.

    ``s0`` is a row-wise sum and the other sums are stacked products of one
    row by one column, which are BLAS dots of each row, as ``_solve_wls``'s
    are; so on each row the sums, the determinant test and the coefficients
    are its doubles.  Padding the rows to one length would not give them: a
    dot's rounding depends on its length."""
    s0 = w.sum(1)
    s1, s2, t0, t1 = (np.matmul(w[:, None, :], v[:, :, None])[:, 0, 0]
                      for v in (d, d * d, y, d * y))
    det = s0 * s2 - s1 * s1
    beta1 = (s0 * t1 - s1 * t0) / det
    return (t0 - s1 * beta1) / s0, beta1, det > 1e-13 * s0 * s2


def _mean_lock_step(x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Quadratic-loss values at the grid points x0 of ``_windows``' arrays:
    ``_solve_wls`` on each point's run of weighted rows, bit for bit.

    The points are grouped by the length of their run, and each group's
    runs are gathered into C-contiguous (points x run) arrays and solved by
    ``_row_wls``.  Returns the values, nan at the points handed back (the
    module docstring lists them).  One x is tested on its own: a determinant
    of subnormal sums can pass the determinant test.
    """
    weighted = w != 0.0
    count = np.count_nonzero(weighted, axis=1)
    first = weighted.argmax(1)
    end = weighted.shape[1] - weighted[:, ::-1].argmax(1)  # after the last weighted row
    at = np.arange(len(x0))
    # the rows are sorted by x, so a run of two or more x starts below its end
    one_run = (count >= 2) & (end - first == count) & (x[at, first] < x[at, end - 1])
    values = np.full(len(x0), np.nan)
    for length in np.unique(count[one_run]).tolist():
        ids = np.flatnonzero(one_run & (count == length))
        rows, cols = ids[:, None], first[ids, None] + np.arange(length)
        beta0, _, regular = _row_wls(x[rows, cols] - x0[rows], y[rows, cols], w[rows, cols])
        values[ids] = np.where(regular, beta0, np.nan)
    return values


def _lock_step(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: np.ndarray, tau: float,
) -> np.ndarray:
    """Check-loss values at the grid points x0 of ``_windows``' arrays, whose
    windows hold 2 to ``_SMALL_WINDOW`` - 1 rows.

    Every point runs the descent of ``_check_loss_line`` at once, on
    (points x window) arrays in which the padding and the rows below
    ``WEIGHT_FLOOR`` carry weight 0.  Returns the values of the points whose
    descent ends on the only optimal line, which ``_check_loss_line`` reaches
    too, and nan at the others; the module docstring lists them.
    """
    weighted = w > 0.0
    y_scale = 2.0 * np.where(weighted, np.abs(y), 0.0).max(1)
    x_span = np.where(weighted, x, -np.inf).max(1) - np.where(weighted, x, np.inf).min(1)
    # the columns hold each window and sorted rows after it, so their smallest positive
    # step in x bounds each nonzero |a| in the window from below; where these hold every
    # weighted row off the pivot's x has a finite slope and c = w |a| > 0
    dx = np.diff(x, axis=1)
    gap = np.where(dx > 0.0, dx, np.inf).min(1)
    ids = np.flatnonzero((x_span < 1e300) & (gap > 1e-300) & (y_scale < 1e300 * gap))
    values = np.full(len(x0), np.nan)
    # per point: its window and x0, the on-line scales, and the best line so far, its objective
    # and whether it holds a weighted row besides its pivot and partner or a rotation tied
    x, y, w, weighted, x0 = x[ids], y[ids], w[ids], weighted[ids], x0[ids]
    y_scale, x_span = y_scale[ids], x_span[ids]
    # _start's pivot up to rounding: the weighted row on the best line of least-squares slope
    d = x - x0[:, None]
    _, slope, regular = _row_wls(d, y, w)
    v = np.where(weighted, y - np.where(regular, slope, 0.0)[:, None] * d, np.inf)
    k = _row_quantiles(v, w, tau * w.sum(1))[0]
    best_k, best_j, best_b1 = k, k, np.zeros(len(ids))
    best_f = np.full(len(ids), np.inf)
    more = np.zeros(len(ids), dtype=bool)
    while len(ids):
        at = np.arange(len(ids))
        a = x - x[at, k][:, None]
        dy = y - y[at, k][:, None]
        j, flat = _lock_step_partner(a, dy, w, tau)
        b1 = dy[at, j] / a[at, j]
        r = dy - b1[:, None] * a
        f = np.where(weighted, w * np.maximum(tau * r, (tau - 1.0) * r), 0.0).sum(1)
        on = weighted & (np.abs(r) <= (_ON_LINE * (y_scale + np.abs(b1) * x_span))[:, None])
        on[at, k] = on[at, j] = False
        better = f < best_f
        best_k, best_j = np.where(better, k, best_k), np.where(better, j, best_j)
        best_b1, best_f = np.where(better, b1, best_b1), np.where(better, f, best_f)
        more = np.where(better, on.any(1), more) | flat
        stop = ~better | (f == 0.0)
        # a first objective that is not finite leaves best_f at inf
        done = np.flatnonzero(stop & ~more & (best_f < np.inf))
        p, q, x0d = best_k[done], best_j[done], x0[done]
        xp, xq = x[done, p], x[done, q]
        dp, dq = np.abs(xp - x0d), np.abs(xq - x0d)
        # anchor on the point nearer x0, as local_linear_fit does
        p = np.where((dp > dq) | ((dp == dq) & (xp > xq)), q, p)
        values[ids[done]] = y[done, p] - best_b1[done] * (x[done, p] - x0d)
        go = ~stop
        (ids, x, y, w, weighted, x0, y_scale, x_span, k, best_k, best_j, best_b1, best_f,
         more) = (v[go] for v in (ids, x, y, w, weighted, x0, y_scale, x_span, j, best_k, best_j,
                                  best_b1, best_f, more))
    return values


def _lock_step_partner(a: np.ndarray, dy: np.ndarray, w: np.ndarray,
                       tau: float) -> tuple[np.ndarray, np.ndarray]:
    """``_rotate``'s partner for each row of (points x window) arrays, and
    whether two lines tie: a running weight meets the cut up to rounding."""
    c = w * np.abs(a)  # 0 at rows of weight 0 and at the pivot's x, the pivot among them
    cut = tau * c.sum(1) + (1.0 - 2.0 * tau) * np.where(a < 0.0, c, 0.0).sum(1)
    j, running = _row_quantiles(np.where(c > 0.0, dy / a, np.inf), c, cut)
    return j, (np.abs(running - cut[:, None]) <= _ON_LINE * running[:, -1:]).any(1)


def _row_quantiles(v: np.ndarray, c: np.ndarray,
                   cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sorted_select`` on each row of (points x window) arrays: the column
    of the smallest v whose running weight c, in order of v, reaches cut, or
    of the largest v of positive weight when rounding puts cut above the
    total; and the running weights.  Columns of positive c sort first."""
    order = np.argsort(v, axis=1)
    running = np.cumsum(np.take_along_axis(c, order, axis=1), axis=1)
    last = np.count_nonzero(c, axis=1) - 1
    return order[np.arange(len(v)), np.minimum((running < cut[:, None]).sum(1), last)], running


def fit_curve(sample: PairedSample, spec: FitSpec) -> FittedCurve:
    """Evaluate the local fit on an equispaced grid over [min(x), max(x)].

    The sample is sorted by x once per curve, rows of equal x in their input
    order (a stable sort, needed only when x has ties), and each grid point
    x0 is fitted on its window, the slice of the sorted rows with |x - x0|
    <= _REACH * h, found by binary search.  For either loss, the grid
    points whose windows hold fewer than ``_SMALL_WINDOW`` rows are solved
    together in lock step, which leaves nan at the points it hands back (the
    module docstring lists them).  The points still nan are solved one at a
    time: the mean in closed form on the run of the window's rows that carry
    kernel weight, the check loss by ``local_linear_fit`` on the window,
    built once for neighbouring grid points that share it.  The window holds
    every row with kernel weight, so the curve is ``local_linear_fit`` on the
    sample stably sorted by x, bit for bit, for both losses, errors included:
    the first grid point at which ``local_linear_fit`` fails, a window of
    fewer than two rows among them, raises its ``SmoothingError``.  An x whose
    range overflows a float raises ``SmoothingError`` before any fit.

    No extrapolation is attempted beyond the data range, and fitted values
    are never clamped here; clamping to [0, 1] is a presentation concern.
    """
    if sample.n < 4:
        raise ValueError("curve fitting needs at least 4 observations")
    if spec.bandwidth is None:
        raise ValueError("spec.bandwidth must be set before fitting")
    h = spec.bandwidth.value
    order = np.argsort(sample.x)
    xs = sample.x[order]
    if np.any(xs[1:] == xs[:-1]):  # tied x: only a stable sort keeps the row order
        order = np.argsort(sample.x, kind="stable")
        xs = sample.x[order]
    if not math.isfinite(float(xs[-1]) - float(xs[0])):  # the grid's step would overflow
        raise SmoothingError(f"x spans more than the float range: {xs[0]} to {xs[-1]}")
    ys = sample.y[order]
    grid = np.linspace(float(xs[0]), float(xs[-1]), spec.grid_size)
    los = np.searchsorted(xs, grid - _REACH * h, side="left")
    his = np.searchsorted(xs, grid + _REACH * h, side="right")
    values = np.full(spec.grid_size, np.nan)
    mean = spec.loss.kind == "quadratic"
    small = np.flatnonzero((his - los >= 2) & (his - los < _SMALL_WINDOW))
    # in a block, padding far beyond a window can lie so many bandwidths away that u
    # overflows, slopes at the pivot's x divide by 0, and sums may overflow; none of them
    # decides a value, and the per-point path redoes a handed-back point, warnings included
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, len(small), _BLOCK):
            block = small[start:start + _BLOCK]
            x, y, w = _windows(xs, ys, grid[block], los[block], his[block], h)
            values[block] = (_mean_lock_step(x, y, w, grid[block]) if mean
                             else _lock_step(x, y, w, grid[block], spec.loss.tau))
    todo = np.isnan(values)
    bounds, window = None, None
    for i, x0, lo, hi in zip(np.flatnonzero(todo).tolist(), grid[todo].tolist(),
                             los[todo].tolist(), his[todo].tolist()):
        try:
            if hi - lo < 2:  # a PairedSample needs two rows, and so does the fit
                raise _too_few(x0)
            if mean:
                x, y, w = _weighted_rows(xs[lo:hi], ys[lo:hi], x0, h)
                if not x.size or x[0] == x[-1]:  # sorted: x[0] is the least x
                    raise _too_few(x0)
                values[i] = _solve_wls(x - x0, y, w, x0)[0]
                continue
            if (lo, hi) != bounds:
                bounds, window = (lo, hi), PairedSample(x=xs[lo:hi], y=ys[lo:hi])
            values[i], _ = local_linear_fit(window, x0, h, spec.loss)
        except SmoothingError as exc:
            raise SmoothingError(f"grid point {i}: {exc}") from exc
    return FittedCurve(grid=grid, values=values, spec=spec)
