"""Local linear scatterplot smoothing under quadratic or check loss.

At each evaluation point x0 the estimate solves

    min over (b0, b1) of  sum_i L(y_i - b0 - b1 (x_i - x0)) * K((x_i - x0) / b)

with K the standard normal kernel [1, 2].  The fitted value at x0 is b0.

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

Weighted rows.  A row carries kernel weight at x0 when |x - x0| <= ``_RADIUS``
h (about 7.31 bandwidths), where the kernel is at least ``WEIGHT_FLOOR``; the
others carry weight zero.  Every fit reads the rows in the sample's
``x_order``, by (x, y), the one tie order that the ranks and the plug-in
bandwidth share too, so a fit is a function of the multiset of rows, tied
data included.  On sorted rows the weighted rows are one run, found by two
binary searches [5].

Where a grid point is solved.  ``fit_curve`` sends each grid point to one of
three solvers: the lock step, which solves the points of small windows
together (``_mean_lock_step``, ``_median_lock_step``); the warm start, which
starts a large window's descent from the line of the grid point before
(``_warm_fit``); or ``local_linear_fit``.  Its docstring gives the rules, and
each solver's docstring says why its value is ``local_linear_fit``'s double.

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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

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
_INV_SQRT_2PI = 1.0 / _SQRT_2PI

_Real = float | np.ndarray  # a float, or an array of them taken elementwise

# |x - x0| / h at which the kernel falls to WEIGHT_FLOOR, about 7.31; a row
# carries weight when |x - x0| <= _RADIUS h
_RADIUS = math.sqrt(-2.0 * math.log(WEIGHT_FLOOR * _SQRT_2PI))

# the radius padded by 1%, so that no rounding of x - x0 or of _RADIUS h leaves
# a weighted row outside a window
_REACH = 1.01 * _RADIUS

# the bandwidths for which ``_gaussian`` takes the weights from d * d: inside,
# h * h and 1 / (2 h * h) are normal floats, and so is d * d at the radius
_SQUARED_OFFSETS = (1e-150, 1e150)


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


def _gaussian(d: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The Gaussian kernel at the offsets d = x - x0, with no floor: the
    weights, and d * d when they were taken from it (else None).

    Every caller, for either loss, takes the weights as
    exp(d d (-1 / (2 h h))) (1 / sqrt(2 pi)), with both constants taken once:
    a product per row before ``exp`` and one after, and the d d that the
    least-squares sums take too.  That needs h in ``_SQUARED_OFFSETS``:
    below it h h is subnormal or 0 and 1 / (2 h h) overflows, above it d d
    overflows at the radius.  There, and only there, the weights are the
    textbook exp(-u u / 2) / sqrt(2 pi) with u = d / h, in that order of
    operations.  Both forms are built in place.  The two round otherwise by at
    most about 7e-15 relative (measured).
    """
    if _SQUARED_OFFSETS[0] < bandwidth < _SQUARED_OFFSETS[1]:
        dd = np.square(d)  # the doubles of d * d; one operand runs twice as fast
        w = dd * (-0.5 / (bandwidth * bandwidth))
        np.exp(w, out=w)
        w *= _INV_SQRT_2PI
        return w, dd
    u = d / bandwidth
    w = -0.5 * u
    w *= u
    np.exp(w, out=w)
    w /= _SQRT_2PI
    return w, None


def _kernel_weights(x: np.ndarray, x0: _Real, bandwidth: float) -> np.ndarray:
    """The kernel weights of rows x at x0 (arrays broadcast): ``_gaussian``
    of d = x - x0 where |d| <= _RADIUS h, and 0 beyond.  For rows that need
    not be one run of a sorted window: the lock step's padded windows and
    ``check_loss_objective``'s sample."""
    d = x - x0
    w = _gaussian(d, bandwidth)[0]
    w[np.abs(d) > _RADIUS * bandwidth] = 0.0
    return w


def _solve_wls(d: np.ndarray, y: np.ndarray, w: np.ndarray, x0: float,
               dd: np.ndarray | None = None) -> tuple[float, float]:
    """Closed-form 2-parameter weighted least squares on the design (1, d).

    ``dd``, when given, is d * d, as ``_gaussian`` returns it, and is
    overwritten; otherwise it is taken here.  The sums are a pairwise sum
    and BLAS dots, d y reusing the buffer of d d.  Their doubles, and so the
    coefficients, hold within one BLAS configuration: with OpenBLAS, a dot
    of more than 10,000 rows can round otherwise when it runs on more
    threads.
    """
    s0 = float(np.add.reduce(w))
    s1 = float(w @ d)
    if dd is None:
        dd = np.square(d)
    s2 = float(w @ dd)
    t0 = float(w @ y)
    t1 = float(w @ np.multiply(d, y, out=dd))
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


def _on_line_bound(y_scale: _Real, b1: _Real, x_span: _Real) -> _Real:
    """The largest |residual| of a row on a line of slope b1: ``_ON_LINE``
    times the magnitude the residuals are computed from, y_scale (2 max |y|
    over the rows) plus |b1| times the span x_span of their x; floats or
    arrays alike."""
    return _ON_LINE * (y_scale + abs(b1) * x_span)


# The one threshold between the lock step and the per-point path, for both
# losses.  ``fit_curve`` solves the grid points whose windows hold fewer rows
# than this together, in lock step (``_mean_lock_step`` for the mean,
# ``_lock_step`` for the check loss), where a point's time goes to numpy call
# overhead; larger windows take ``_solve_wls`` (mean) or the selection's
# descent (check loss), warm-started on tie-free x, one grid point at a time.
_SMALL_WINDOW = 64

# The lock step takes this many grid points at a time, for either loss, which
# bounds its (points x window) arrays however large the grid.
_BLOCK = 128

# Of the grid points that the check-loss lock step takes, every _STRIDE-th is
# solved first, and its line is tried on the points up to the next (_certify).
# A block's time goes mostly to numpy call overhead, so the fewest blocks win:
# at 8 the solved points of a 1000-point curve fill one block, and of the
# fixture's median curves 4 and 32 were slower, 16 about the same.
_STRIDE = 8

# ``_line_rates`` takes the rates about at most this many rows on one line in
# Python floats, and more in numpy: on a window of 4,000 rows the two cost the
# same at about 12 rows, 22 and 30 us at 2 rows, 81 and 32 us at 64.
_FLOAT_ROWS = 8

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
            inside = (at_hi_mask > at_lo_mask).nonzero()[0]
            return _sorted_select(v, c, cut, inside, at_lo)
        step *= _WIDEN
    return _sorted_select(v, c, cut, np.arange(len(v)), 0.0)


def _sorted_select(v: np.ndarray, c: np.ndarray, cut: float, rows: np.ndarray,
                   below: float) -> int:
    """``_select`` among ``rows``, which hold every row whose running weight
    can reach ``cut``; the rows of smaller v weigh ``below``."""
    order = rows[v[rows].argsort(kind="stable")]
    c_order = c[order]
    running = c_order.cumsum()
    running += below
    pos = int(running.searchsorted(cut))
    if pos == len(order):  # cut above the total weight by rounding
        pos = int(c_order.nonzero()[0][-1])
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

    c = w |a|, the cut, the residuals r = dy - b1 a and the objective
    sum_i w_i max(tau r_i, (tau - 1) r_i) are those formulas' doubles for
    every input, taken with fewer passes over the rows.  c and r are built
    in place.  The cut's weighted count of the rows with a < 0 is skipped
    when its factor 1 - 2 tau is exactly 0 (tau = 1/2), since 0 times a
    finite count adds nothing; an infinite total still takes it, as 0 times
    an infinite count is nan.  At tau = 1/2 each max(r_i / 2, -r_i / 2) is
    |r_i| / 2, the same rounding of the same magnitude, so the objective is
    w @ (|r| / 2).  Halving w @ |r| instead would need normal-range numbers,
    for which halving is exact: a subnormal term rounds otherwise, and the
    doubled sum can overflow where the objective does not.  Where every c
    underflows to 0 no slope has weight, and ``SmoothingError`` is raised.

    This and the other per-point helpers call the C routines that numpy's
    Python wrappers forward to (``np.add.reduce`` for ``sum``, the
    ``argsort``, ``cumsum``, ``searchsorted`` and ``nonzero`` methods,
    ``np.minimum.reduce`` and the like), which give the same doubles without
    the wrappers' call overhead; at n = 1e4 a grid point's descent makes
    dozens of such calls on a few thousand rows.
    """
    a = x - x[k]
    dy = y - y[k]
    c = np.abs(a)
    c *= w  # 0 where a = 0, whose slope is inf or nan
    total = float(np.add.reduce(c))
    if total == 0.0:  # every c underflows: the weighted x lie a few subnormals apart
        raise SmoothingError("check-loss weights w |x - x_k| underflow to 0")
    cut = tau * total
    skew = 1.0 - 2.0 * tau
    if skew or total == math.inf:
        cut += skew * float(np.dot(c, a < 0.0))
    slopes = dy / a
    j = _select(slopes, c, cut, guess, spread / total)
    b1 = float(slopes[j])
    f, r = _objective(w, tau, a, dy, b1, out=slopes)  # the slopes are spent
    return int(j), b1, f, r, a


def _objective(
    w: np.ndarray, tau: float, a: np.ndarray, dy: np.ndarray, b1: float,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """The objective and the residuals r = dy - b1 a, built in ``out`` when
    given, of the line of slope b1 through a row k, where a = x - x[k] and
    dy = y - y[k]; ``_rotate`` says why the objective is taken as it is."""
    r = np.multiply(a, b1, out=out)
    np.subtract(dy, r, out=r)
    if tau == 0.5:
        loss = np.abs(r)
        loss *= 0.5
    else:
        loss = np.maximum(tau * r, (tau - 1.0) * r)
    return float(w @ loss), r


def _descending_pivot(
    w: np.ndarray, tau: float, a: np.ndarray, r: np.ndarray, on_line: float,
    tried: list[float],
) -> int | None:
    """A point of a line about which a rotation lowers the objective.

    The line has residuals r, a = x - x[k] for a point k on it, and the rows
    with |r| <= on_line lie on it.  Rotating the line about such a row
    changes the objective at two one-sided rates, which ``_line_rates``
    gives for every such row at once.  These rotations span every direction
    in (b0, b1), so the line is optimal when no rate is negative, and None is
    returned.  Otherwise the row with the steepest rate is returned, skipping
    rows whose a is in ``tried``.
    """
    online = np.abs(r) <= on_line
    on = online.nonzero()[0]
    if all(a[i] in tried for i in on):  # typically just the two defining points
        return None
    on = on[a[on].argsort()]
    rate = _line_rates(w, tau, a, r, online, on)
    for i in rate.argsort():
        if rate[i] >= 0.0:
            return None
        if a[on[i]] not in tried:
            return int(on[i])
    return None


def _rates_on_line(
    w: np.ndarray, tau: float, a: np.ndarray, r: np.ndarray, on_line: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a line (|r| <= on_line), in order of a, and the rates of
    ``_line_rates`` about them."""
    online = np.abs(r) <= on_line
    on = online.nonzero()[0]
    on = on[a[on].argsort()]
    return on, _line_rates(w, tau, a, r, online, on)


def _rate_margin(total: _Real, x_span: _Real, count: int) -> _Real:
    """A bound above the rounding of each rate of ``_line_rates`` on a line
    through count weighted rows of total weight ``total`` whose x span
    ``x_span``: a rate above it is positive, and one that is 0 rounds below it.

    Each rate is summed from the rows' terms w_l (a_l - a_i) times tau or
    1 - tau, of magnitude at most w_l x_span: a sum and a dot over the rows
    off the line, prefix sums over those on it, and a few products.  With
    u = 2**-53, a sum of n terms rounds by at most about (n - 1) u times the
    sum of their magnitudes, so a rate by at most about (4 count + 20) u
    total x_span.  ``_ON_LINE`` = 8192 u bounds that up to count = 2043, and
    count 2**-50 = 8 count u from count = 5 on; the margin is the larger of
    the two, so it holds on a window of any size.  Below 1024 rows it is
    ``_ON_LINE`` total x_span, as ``_certify`` has always taken it.
    """
    return max(_ON_LINE, count * 2.0**-50) * total * x_span


def _line_rates(
    w: np.ndarray, tau: float, a: np.ndarray, r: np.ndarray, on: np.ndarray,
    rows: np.ndarray | tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The smaller one-sided rate of change of the objective as a line is
    rotated about each of ``rows``, for one line (1-d arrays) or one line per
    row of (points x window) arrays.

    The line has residuals r, a = x - x[k] for a row k on it, ``on`` marks
    the rows on it, and ``rows`` indexes them in ``a`` and ``w``, in order
    of a along the last axis.  Rotating about row i by a slope t moves each
    r_l by -t (a_l - a_i).  The rows off the line change their loss at their
    derivative g, and those on it leave it to one side or the other, so the
    rates come from two sums over the rows off the line and prefix sums over
    the rows on it.

    The doubles are those of the formulas as written, taken at less cost:
    g = w (tau - 1{r <= 0}), 0 on the line, is the products w tau and
    w (tau - 1) picked by an ``np.where`` of arrays, not of scalars, and the
    prefix sums are running sums in row order either way.  One line has
    typically two rows on it, and up to ``_FLOAT_ROWS`` the rest of the
    arithmetic costs less in Python floats than in numpy calls on arrays
    that short.
    """
    g = np.where(r > 0.0, w * tau, w * (tau - 1.0))  # derivative of loss in r
    g[on] = 0.0
    g0 = np.add.reduce(g, -1, keepdims=True)
    g1 = np.matmul(g[..., None, :], a[..., :, None])[..., 0]  # a BLAS dot per line
    if a.ndim == 1 and len(rows) <= _FLOAT_ROWS:
        ai, wi = a[rows].tolist(), w[rows].tolist()
        cw, cwa = list(accumulate(wi)), list(accumulate(map(mul, wi, ai)))
        g0, g1 = float(g0[0]), float(g1[0])
        rates = [_rotation_rates(tau, *row, cw[-1], cwa[-1], g0, g1) for row in zip(ai, cw, cwa)]
        return np.array(rates).min(1)
    ai, wi = a[rows], w[rows]
    cw, cwa = wi.cumsum(-1), (wi * ai).cumsum(-1)
    return np.minimum(*_rotation_rates(tau, ai, cw, cwa, cw[..., -1:], cwa[..., -1:], g0, g1))


def _rotation_rates(
    tau: float, ai: _Real, cw: _Real, cwa: _Real, sw: _Real, swa: _Real, g0: _Real, g1: _Real,
) -> tuple[_Real, _Real]:
    """``_line_rates``' two one-sided rates of the rotation about a row on
    the line at a_i, from the running sums cw of w and cwa of w a over the
    rows on the line up to it, their totals sw and swa, and the sums g0 of g
    and g1 of g a; floats or arrays alike."""
    left = ai * cw - cwa  # sum of w_l (a_i - a_l) over rows on the line left of i
    right = (swa - cwa) - ai * (sw - cw)
    pull = g1 - ai * g0  # sum of g_l (a_l - a_i) over rows off the line
    return (1.0 - tau) * right + tau * left - pull, tau * right + (1.0 - tau) * left + pull


# a slope too steep for a float is +-inf, which sorts where the true one
# belongs; a line whose objective overflows is never a descent
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _check_loss_line(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, tau: float, x0: float, x_span: float,
    start: tuple[int, int] | None = None,
) -> tuple[int, int, float] | None:
    """Pivoting descent to an optimal line: (p, q, slope).

    ``x``, ``y`` and ``w`` hold the weighted rows only, and at least two
    distinct values of ``x``; ``x_span`` is max(x) - min(x), which
    ``local_linear_fit`` has taken already, and scales the on-line test.

    The descent starts from ``_start``'s pivot or, a warm start, from the
    line through the two rows ``start``, taken as if a rotation about the
    first had found the second.  A warm start tests each line it reaches
    before it rotates: it takes the rates of ``_line_rates`` about the rows on
    the line, stops when none is negative (the line is optimal) and
    otherwise rotates about the steepest.  It returns the line it ends on
    only when ``_certify``'s rule proves that line the only optimal one: two
    weighted rows on it, and each rate above ``_rate_margin``.  Otherwise it
    returns None, as soon as it finds an optimal line that fails the rule.
    """
    y_scale = 2.0 * float(np.maximum.reduce(np.abs(y)))
    best_f, found = math.inf, None
    if start is None:
        k, guess, spread = _start(x - x0, y, w, tau, x0)
    else:
        k, j = start
        a = x - x[k]
        dy = y - y[k]
        b1 = float(dy[j] / a[j])  # the slope the descent takes: symmetric in k and j
        found = (j, b1, *_objective(w, tau, a, dy, b1), a)  # stands in for a first rotation
        margin = _rate_margin(float(np.add.reduce(w)), x_span, len(w))
    while True:
        j, b1, f, r, a = found or _rotate(x, y, w, tau, k, guess, spread)
        found = None
        if f < best_f:
            best, best_f = (k, j, b1), f
            line = (a, r, _on_line_bound(y_scale, b1, x_span))
            if f == 0.0:
                break
            tried = [0.0]  # a of the pivot itself: the line is best through k
            # every later pivot is on this line: its slope guesses the next
            # rotation's, and 2f (exact at tau = 1/2) sizes the bracket
            k, guess, spread = j, b1, 2.0 * f
            if start is not None:  # a warm start tests the line first
                on, rate = _rates_on_line(w, tau, *line)
                steepest = int(rate.argmin())
                if rate[steepest] >= 0.0:
                    return best if len(on) == 2 and rate[steepest] > margin else None
                k = int(on[steepest])
            continue
        if best_f == math.inf:  # the first line's objective is inf or nan
            raise SmoothingError("check-loss objective overflows")
        tried.append(line[0][k])
        k = _descending_pivot(w, tau, *line, tried)
        if k is None:
            break
    if start is not None:
        on, rate = _rates_on_line(w, tau, *line)
        if len(on) != 2 or not rate.min() > margin:
            return None
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
    rotation's selection.  y - slope * d and its deviations are built in
    place, with the doubles of those formulas.
    """
    try:
        slope = _solve_wls(d, y, w, x0)[1]
    except SmoothingError:  # a nearly singular design: slope 0 starts as well
        slope = 0.0
    v = np.multiply(d, slope)
    np.subtract(y, v, out=v)
    total = float(np.add.reduce(w))
    mean = float(w @ v) / total
    dev = v - mean
    spread = float(w @ np.abs(dev, out=dev))
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
    (tied data), the one the descent reaches first is returned.  Both losses
    see only the rows that carry kernel weight, in the sample's ``sorted_xy``,
    so the result is a function of (the multiset of rows, x0, bandwidth,
    loss) alone, and rows without weight can be left out of ``sample``
    without changing a bit.  Two binary searches on the sorted x find the
    rows within ``_REACH`` h of x0, which hold every weighted row, so a call
    costs O(log n + window) on a sample of any size.

    Raises SmoothingError when fewer than two distinct x values carry kernel
    weight at x0, when quadratic loss has a singular (or overflowing) design,
    and when the check-loss objective overflows or its weights underflow.
    """
    if not bandwidth > 0:  # nan too
        raise ValueError("bandwidth must be > 0")
    xs, ys = sample.sorted_xy
    lo, hi = _reach(xs, x0, bandwidth)
    return _sorted_fit(xs[lo:hi], ys[lo:hi], x0, bandwidth, loss)


def _reach(xs: np.ndarray, x0: _Real, bandwidth: float) -> tuple[_Real, _Real]:
    """lo and hi such that xs[lo:hi] are the rows of sorted xs within
    ``_REACH`` h of x0, at one x0 or an array of them: a window that holds
    every row of kernel weight."""
    return (xs.searchsorted(x0 - _REACH * bandwidth, "left"),
            xs.searchsorted(x0 + _REACH * bandwidth, "right"))


def _sorted_fit(x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float,
                loss: LossKind) -> tuple[float, float]:
    """``local_linear_fit`` on rows (x, y) sorted by (x, y) that hold every
    row of kernel weight at x0: a window of a sample's ``sorted_xy``.

    The span of the weighted x, last minus first, tests for two distinct x
    and scales the descent's on-line test.  The arrays die with the call, so
    no grid point of ``fit_curve`` holds them while the next one is fitted.
    """
    x, y, w, d, dd = _weighted_rows(x, y, x0, bandwidth)
    if not x.size or x[0] == x[-1]:
        raise SmoothingError(f"fewer than 2 distinct observations carry kernel weight "
                             f"at x0 = {x0}")
    if loss.kind == "quadratic":
        return _solve_wls(d, y, w, x0, dd)
    p, q, b1 = _check_loss_line(x, y, w, loss.tau, x0, float(x[-1] - x[0]))
    return _anchored_value(x, y, x0, p, q, b1), b1


def _anchored_value(x: np.ndarray, y: np.ndarray, x0: float, p: int, q: int, b1: float) -> float:
    """The value at x0 of the line of slope b1 through rows p and q, anchored
    on the one nearer x0: the value then depends on the line only."""
    if (abs(x[p] - x0), x[p]) > (abs(x[q] - x0), x[q]):
        p = q
    return float(y[p] - b1 * (x[p] - x0))


def _weighted_rows(
    x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The rows of x-sorted (x, y) that carry kernel weight at x0, as views:
    x, y, their weights, d = x - x0 and d * d (None where ``_gaussian`` does
    not take it, for h outside ``_SQUARED_OFFSETS``).

    A row carries weight when |d| <= _RADIUS h.  d is sorted, so these rows
    are one run, found by two binary searches on d.
    """
    d = x - x0
    radius = _RADIUS * bandwidth
    rows = slice(int(d.searchsorted(-radius, "left")), int(d.searchsorted(radius, "right")))
    d = d[rows]
    w, dd = _gaussian(d, bandwidth)
    return x[rows], y[rows], w, d, dd


def _warm_fit(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: float, tau: float,
    seed: tuple[float, float] | None,
) -> tuple[float, tuple[float, float]] | None:
    """``local_linear_fit``'s check-loss value at x0 from a warm start, and
    the x of the two rows of its line; None where it is not certified.

    ``x``, ``y`` and ``w`` are the weighted rows of a window of the sorted
    sample, on tie-free x, and ``seed`` holds the x of the two rows that
    define the line of the grid point before; there is no start when one of
    them carries no weight at x0.

    A point's optimal line is often its neighbour's, or a rotation away from
    it, so the descent of ``_check_loss_line`` starts there.  It keeps the
    line it stops on only when ``_certify``'s rule proves that line the only
    optimum, with ``_rate_margin`` for the margin; the value is then the
    descent's double, anchored as ``local_linear_fit`` anchors it, for the
    reasons ``_certify`` gives.  At n = 1e4 (windows of about 3,900 rows)
    999 of 1000 grid points keep their warm line, after 0.8 to 1.0 rotations
    on average against 3.6 from ``_start``.
    """
    if seed is None or not x.size:
        return None
    rows = np.minimum(x.searchsorted(seed), len(x) - 1)
    p, q = rows.tolist()
    if x[p] != seed[0] or x[q] != seed[1]:
        return None
    line = _check_loss_line(x, y, w, tau, x0, float(x[-1] - x[0]), (p, q))
    if line is None:
        return None
    p, q, b1 = line
    return _anchored_value(x, y, x0, p, q, b1), (float(x[p]), float(x[q]))


def _rows_on_line(x: np.ndarray, y: np.ndarray, x0: float, b0: float,
                  b1: float) -> tuple[float, float] | None:
    """The x of the two rows of x-sorted (x, y) on the line b0 + b1 (x - x0),
    by the descent's on-line test, or None unless exactly two are on it."""
    r = y - (b0 + b1 * (x - x0))
    bound = _on_line_bound(2.0 * float(np.maximum.reduce(np.abs(y))), b1, float(x[-1] - x[0]))
    on = (np.abs(r) <= bound).nonzero()[0]
    return (float(x[on[0]]), float(x[on[1]])) if len(on) == 2 else None


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
    ``_row_wls``.  Returns the values, and nan at the points handed back:
    those whose weighted rows are fewer than two or share one x, and those
    whose design fails ``_solve_wls``'s determinant test, at which the
    per-point path raises where ``local_linear_fit`` does.  One x is tested
    on its own: a determinant of subnormal sums can pass the determinant
    test.
    """
    weighted = w != 0.0  # the rows within the radius: one run of each sorted window
    count = np.count_nonzero(weighted, axis=1)
    first = weighted.argmax(1)
    at = np.arange(len(x0))
    # the rows are sorted by x, so a run of two or more x starts below its end
    solvable = (count >= 2) & (x[at, first] < x[at, first + count - 1])
    values = np.full(len(x0), np.nan)
    for length in np.unique(count[solvable]).tolist():
        ids = np.flatnonzero(solvable & (count == length))
        rows, cols = ids[:, None], first[ids, None] + np.arange(length)
        beta0, _, regular = _row_wls(x[rows, cols] - x0[rows], y[rows, cols], w[rows, cols])
        values[ids] = np.where(regular, beta0, np.nan)
    return values


def _scales(
    x: np.ndarray, y: np.ndarray, w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``_windows``' arrays: the weighted rows, the scales of the
    on-line test (2 max |y| and the span of x over the weighted rows), and
    whether the lock step takes the point.

    The columns hold each window and sorted rows after it, so their smallest
    positive step in x bounds each nonzero |a| in the window from below.  The
    lock step takes a point when then every weighted row off the pivot's x
    has a finite slope and c = w |a| > 0, and every line through two weighted
    rows has a finite objective, as the first line of ``_check_loss_line``
    then has.
    """
    weighted = w > 0.0
    at = np.arange(len(w))
    last = w.shape[1] - 1 - weighted[:, ::-1].argmax(1)
    x_span = x[at, last] - x[at, weighted.argmax(1)]  # the columns are sorted by x
    y_scale = 2.0 * np.where(weighted, np.abs(y), 0.0).max(1)
    dx = np.diff(x, axis=1)
    gap = np.where(dx > 0.0, dx, np.inf).min(1)
    # a slope is at most y_scale / gap, and a residual y_scale + that slope times x_span
    sound = (x_span < 1e300) & (gap > 1e-300) & (y_scale < 1e300 * gap)
    return weighted, y_scale, x_span, sound & (y_scale * x_span < 1e300 * gap)


def _anchored(x: np.ndarray, y: np.ndarray, x0: np.ndarray, b1: np.ndarray, p: np.ndarray,
              q: np.ndarray) -> np.ndarray:
    """At each row of ``_windows``' arrays, the value at x0 of the line of
    slope b1 through columns p and q, anchored on the one nearer x0, as
    ``local_linear_fit`` anchors it."""
    at = np.arange(len(x0))
    xp, xq = x[at, p], x[at, q]
    dp, dq = np.abs(xp - x0), np.abs(xq - x0)
    p = np.where((dp > dq) | ((dp == dq) & (xp > xq)), q, p)
    return y[at, p] - b1 * (x[at, p] - x0)


def _lock_step(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: np.ndarray, tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Check-loss values at the grid points x0 of ``_windows``' arrays, whose
    windows hold 2 to ``_SMALL_WINDOW`` - 1 rows, and the columns of the two
    rows that define each point's line, the smaller first.

    Every point runs the descent of ``_check_loss_line`` at once, on
    (points x window) arrays in which the padding and the rows beyond the
    radius carry weight 0.  Rows of c = 0 get the slope +inf, so they sort
    last and are never a partner.  Each step rotates every unfinished point
    about its pivot, taking the weighted quantile of a rotation by a
    row-wise sort of the slopes and their running weight, and takes a line
    that lowers the objective strictly.  The kernel weights, slopes,
    residuals and on-line test are the doubles of the scalar descent; equal
    slopes may sort, and the cut and the objective be summed, in another
    order.  A point stops when the rotation about the newer point of its
    best line brings no strict decrease.  That line is optimal, and the only
    optimal one when it holds no weighted row besides the two that define
    it and neither rotation about those two ties two lines, with a running
    weight within ``_ON_LINE`` of the total from the cut (as equal weights
    at a tied x can be): near the line every direction is a rotation about
    one of the two.  The scalar descent reaches the only optimal line from
    any start, so the start (``_start`` up to rounding: the slope from
    ``_row_wls``, 0 where its determinant test fails, and the weighted
    quantile at that slope) only steers the path, and the value, anchored as
    in ``local_linear_fit``, is the same double.

    Returns those values, and nan and columns -1 at the points handed back:
    where a slope, or the objective of a line through two weighted rows,
    could overflow (``_scales``); where the best line holds another
    weighted row (tied y, or a copy of the pivot or the partner); and where
    two lines tie, as all lines through the pivot do where the window holds
    fewer than two distinct weighted x.
    """
    weighted, y_scale, x_span, sound = _scales(x, y, w)
    ids = np.flatnonzero(sound)
    values = np.full(len(x0), np.nan)
    lines = np.full((len(x0), 2), -1)
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
        on = weighted & (np.abs(r) <= _on_line_bound(y_scale, b1, x_span)[:, None])
        on[at, k] = on[at, j] = False
        better = f < best_f
        best_k, best_j = np.where(better, k, best_k), np.where(better, j, best_j)
        best_b1, best_f = np.where(better, b1, best_b1), np.where(better, f, best_f)
        more = np.where(better, on.any(1), more) | flat
        stop = ~better | (f == 0.0)
        done = np.flatnonzero(stop & ~more)
        p, q = best_k[done], best_j[done]
        values[ids[done]] = _anchored(x[done], y[done], x0[done], best_b1[done], p, q)
        lines[ids[done]] = np.stack([np.minimum(p, q), np.maximum(p, q)], 1)
        go = ~stop
        (ids, x, y, w, weighted, x0, y_scale, x_span, k, best_k, best_j, best_b1, best_f,
         more) = (v[go] for v in (ids, x, y, w, weighted, x0, y_scale, x_span, j, best_k, best_j,
                                  best_b1, best_f, more))
    return values, lines


def _certify(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, x0: np.ndarray, tau: float,
    *candidates: np.ndarray,
) -> np.ndarray:
    """Check-loss values at the grid points x0 of ``_windows``' arrays whose
    only optimal line is one of the ``candidates``, tried in turn, and nan at
    the others.  Each candidate gives two columns of each window (points x 2,
    the smaller first); -1, or a column outside the window, gives no line.

    A point is certified against a line when the lock step takes it, both
    columns are weighted rows of its window, no other weighted row is on the
    line (the lock step's on-line test), and each rate of ``_line_rates``
    about the two rows exceeds ``_rate_margin``, ``_ON_LINE`` times the total
    weight times the span of the weighted x on windows this small.  Near
    such a line the objective is linear on each of the four cones between
    those rotations, so it rises in every direction: the line is the only
    optimum.  The margin lies far above a rate's rounding, so a rate that is
    0 but rounds above it (a flat rotation, as tied x makes) does not pass.
    The descent reaches the only optimum from any start and, with no other
    row on the line, ends on the same two rows; the slope is symmetric in
    them, so the value, anchored as in ``local_linear_fit``, is the
    descent's double.  A line through a third weighted row is not
    certified: the descent may define it by another pair of its rows, whose
    slope and anchor round otherwise.
    """
    weighted, y_scale, x_span, sound = _scales(x, y, w)
    values = np.full(len(x0), np.nan)
    ids = np.flatnonzero(sound)
    rows = (x, y, w, weighted, x0, y_scale, x_span)
    for lines in candidates:
        x, y, w, weighted, x0, y_scale, x_span = (v[ids] for v in rows)
        inside = (lines[ids, 0] >= 0) & (lines[ids, 1] < x.shape[1])
        lines = np.where(inside[:, None], lines[ids], [0, 1])
        at, p, q = np.arange(len(ids)), lines[:, 0], lines[:, 1]
        a = x - x[at, p][:, None]
        dy = y - y[at, p][:, None]
        b1 = dy[at, q] / a[at, q]  # the slope the descent takes: symmetric in p and q
        r = dy - b1[:, None] * a
        on = weighted & (np.abs(r) <= _on_line_bound(y_scale, b1, x_span)[:, None])
        rate = _line_rates(w, tau, a, r, on, (at[:, None], lines))
        unique = (rate > _rate_margin(w.sum(1), x_span, w.shape[1])[:, None]).all(1)
        certified = inside & on[at, p] & on[at, q] & (on.sum(1) == 2) & unique
        values[ids] = np.where(certified, _anchored(x, y, x0, b1, p, q), np.nan)
        ids = ids[~certified]
    return values


def _blocks(points: np.ndarray) -> Iterator[np.ndarray]:
    """``points`` in runs of at most ``_BLOCK``, the lock step's unit of work."""
    return (points[start:start + _BLOCK] for start in range(0, len(points), _BLOCK))


def _median_lock_step(
    xs: np.ndarray, ys: np.ndarray, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, h: float,
    tau: float,
) -> np.ndarray:
    """Check-loss values at the grid points x0 whose windows xs[lo:hi],
    ys[lo:hi] hold 2 to ``_SMALL_WINDOW`` - 1 rows, nan where handed back.

    The optimal line is piecewise constant in x0: on the fixture's median
    curves of 1000 grid points, a point's line is its neighbour's at about
    19 steps in 20.  So there are three passes, each in blocks of ``_BLOCK``
    points: ``_lock_step`` solves every ``_STRIDE``-th point and keeps its
    line; ``_certify`` tries each other point against the line of the solved
    point on its left, then on its right; and ``_lock_step`` solves the
    points that neither certifies.
    """
    values = np.full(len(x0), np.nan)
    points = np.arange(len(x0))
    solved, rest = points[::_STRIDE], points[points % _STRIDE > 0]
    # the two rows of xs that define the line of each solved point, -1 for a point
    # handed back and, in the last row, for the points after the last solved one
    lines = np.full((len(solved) + 1, 2), -1)
    for ids in _blocks(solved):
        values[ids], cols = _lock_step(*_windows(xs, ys, x0[ids], lo[ids], hi[ids], h), x0[ids],
                                       tau)
        lines[ids // _STRIDE] = np.where(cols < 0, -1, cols + lo[ids, None])
    for ids in _blocks(rest):
        left, first = ids // _STRIDE, lo[ids, None]
        values[ids] = _certify(*_windows(xs, ys, x0[ids], lo[ids], hi[ids], h), x0[ids], tau,
                               lines[left] - first, lines[left + 1] - first)
    for ids in _blocks(rest[np.isnan(values[rest])]):
        values[ids] = _lock_step(*_windows(xs, ys, x0[ids], lo[ids], hi[ids], h), x0[ids], tau)[0]
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

    Each grid point x0 is fitted on its window, the rows of the sample's
    ``sorted_xy`` with |x - x0| <= _REACH * h, found by binary search.  A
    window holds every row with kernel weight, so its fit is
    ``local_linear_fit``'s.  The grid points are solved thus:

    - Windows of 2 to ``_SMALL_WINDOW`` - 1 rows, for either loss, in lock
      step: ``_mean_lock_step`` in blocks of ``_BLOCK`` points, or
      ``_median_lock_step``.  A point they hand back goes on as below.
    - The mean: ``_sorted_fit`` on the window.
    - The check loss, on tie-free x whose slopes and objectives cannot
      overflow (``_scales``' bounds over the whole sample), at a window of
      ``_SMALL_WINDOW`` rows or more: ``_warm_fit``, from the line of the
      grid point before.
    - Every other check-loss point, a cold one: ``local_linear_fit`` on the
      sample.  Where the warm start applies, the next point starts from the
      two weighted rows on that line, when exactly two lie on it.

    So the curve is ``local_linear_fit`` on the sample, bit for bit within
    one BLAS configuration (``_solve_wls``), for both losses, errors
    included: the first grid point at which ``local_linear_fit`` fails
    raises its ``SmoothingError``.  An x whose range overflows a float, or
    spans too few floats for ``grid_size`` strictly increasing grid points,
    raises ``SmoothingError`` before any fit.

    No extrapolation is attempted beyond the data range, and fitted values
    are never clamped here; clamping to [0, 1] is a presentation concern.
    """
    if sample.n < 4:
        raise ValueError("curve fitting needs at least 4 observations")
    if spec.bandwidth is None:
        raise ValueError("spec.bandwidth must be set before fitting")
    h = spec.bandwidth.value
    xs, ys = sample.sorted_xy
    if not math.isfinite(float(xs[-1]) - float(xs[0])):  # the grid's step would overflow
        raise SmoothingError(f"x spans more than the float range: {xs[0]} to {xs[-1]}")
    grid = np.linspace(float(xs[0]), float(xs[-1]), spec.grid_size)
    if not np.all(grid[1:] > grid[:-1]):
        raise SmoothingError(f"x spans too few floats for {spec.grid_size} distinct grid "
                             f"points: {xs[0]} to {xs[-1]}")
    tied = bool(np.any(xs[1:] == xs[:-1]))  # tied x takes no warm start
    los, his = _reach(xs, grid, h)
    values = np.full(spec.grid_size, np.nan)
    mean = spec.loss.kind == "quadratic"
    small = np.flatnonzero((his - los >= 2) & (his - los < _SMALL_WINDOW))
    # in a block, padding far beyond a window can lie so many bandwidths away that u or
    # d * d overflows, slopes at the pivot's x divide by 0, and sums may overflow; none of them
    # decides a value, and the per-point path redoes a handed-back point, warnings included
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if mean:
            for ids in _blocks(small):
                values[ids] = _mean_lock_step(*_windows(xs, ys, grid[ids], los[ids], his[ids], h),
                                              grid[ids])
        else:
            values[small] = _median_lock_step(xs, ys, grid[small], los[small], his[small], h,
                                              spec.loss.tau)
        # _scales' bounds overflow themselves where they fail
        warm = not (mean or tied) and bool(_scales(xs[None], ys[None],
                                                   np.ones((1, len(xs))))[3][0])
    todo = np.isnan(values)
    seed = None  # the x of the two weighted rows that define that line
    for i, x0, lo, hi in zip(np.flatnonzero(todo).tolist(), grid[todo].tolist(),
                             los[todo].tolist(), his[todo].tolist()):
        try:
            if mean:
                values[i] = _sorted_fit(xs[lo:hi], ys[lo:hi], x0, h, spec.loss)[0]
                continue
            rows = None
            if warm and hi - lo >= _SMALL_WINDOW:
                rows = _weighted_rows(xs[lo:hi], ys[lo:hi], x0, h)[:3]
                fit = _warm_fit(*rows, x0, spec.loss.tau, seed)
                if fit is not None:
                    values[i], seed = fit
                    continue
            values[i], b1 = local_linear_fit(sample, x0, h, spec.loss)
            if rows is not None:
                seed = _rows_on_line(*rows[:2], x0, values[i], b1)
        except SmoothingError as exc:
            raise SmoothingError(f"grid point {i}: {exc}") from exc
    return FittedCurve(grid=grid, values=values, spec=spec)
