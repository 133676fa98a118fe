"""Independent checks of the program's outputs, run outside the timed region.

At a fixed, evenly spaced sample of grid points per fitted curve:

- a mean (quadratic-loss) fit is compared with a weighted
  ``numpy.linalg.lstsq`` on the rows that carry kernel weight;
- a median (check-loss) fit is recomputed through the public
  ``local_linear_fit``, which must reproduce the curve value exactly, and its
  ``check_loss_objective`` is compared with the objective at the optimum of
  the linear program solved by ``scipy.optimize.linprog(method="highs")``.

For rank coefficients the identity
``loc_index(rank_step_function(s)) == finite_population_I(s)`` is checked.

Tolerances are fixed here, not tuned per run:

- ``MEAN_TOL``: the closed-form fit and lstsq agree to rounding (about 1e-15
  on [0, 1] data); 1e-9 leaves room for a reordered sum and still flags any
  real error.
- ``MEDIAN_GAP_TOL``: a fit fails when its objective exceeds the LP optimum
  by more than 0.1%, as a solver that stopped far from the optimum or fitted
  the wrong loss does.  Smaller gaps are solver inexactness (the IRLS solver
  stops up to about 2e-4 above the optimum on the fixture); they are
  reported as measured in ``smoothing.median_obj_gap_max``, not counted as
  failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from locindex import smoothing

POINTS_PER_FIT = 16
# the Gaussian weight truncation that smoothing.py documents
KERNEL_FLOOR = 1e-12
MEAN_TOL = 1e-9
MEDIAN_GAP_TOL = 1e-3
IDENTITY_REL_TOL = 1e-12
IDENTITY_ABS_TOL = 1e-15


@dataclass
class FitCheck:
    """Outcome of checking one curve at its sampled grid points.

    ``worst`` is the largest absolute error (mean fits) or relative
    objective gap (median fits) seen.
    """

    points: int = 0
    worst: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def sample_indices(grid_size: int, count: int = POINTS_PER_FIT) -> np.ndarray:
    return np.unique(np.linspace(0, grid_size - 1, count).round().astype(int))


def kernel_weights(x: np.ndarray, x0: float, bandwidth: float) -> np.ndarray:
    u = (x - x0) / bandwidth
    w = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    w[w < KERNEL_FLOOR] = 0.0
    return w


def active_rows(x: np.ndarray, grid: np.ndarray, bandwidth: float) -> int:
    """Rows with kernel weight >= KERNEL_FLOOR, summed over the grid points."""
    reach = bandwidth * math.sqrt(-2.0 * math.log(KERNEL_FLOOR * math.sqrt(2.0 * math.pi)))
    xs = np.sort(x)
    counts = np.searchsorted(xs, grid + reach, side="right") - np.searchsorted(
        xs, grid - reach, side="left")
    return int(counts.sum())


def mean_oracle(x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float) -> float:
    """Local linear mean at x0 by weighted lstsq on the weighted rows."""
    w = kernel_weights(x, x0, bandwidth)
    active = w > 0.0
    root_w = np.sqrt(w[active])
    design = np.column_stack([root_w, root_w * (x[active] - x0)])
    beta, *_ = np.linalg.lstsq(design, root_w * y[active], rcond=None)
    return float(beta[0])


def check_loss_lp(
    x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float, tau: float
) -> tuple[float, float]:
    """(b0, b1) minimizing sum w_i rho_tau(y_i - b0 - b1 (x_i - x0)) as an LP.

    Variables are b0, b1 (free) and the residual parts u, v >= 0 with
    b0 + b1 d_i + u_i - v_i = y_i; the cost is w_i (tau u_i + (1 - tau) v_i).
    """
    w = kernel_weights(x, x0, bandwidth)
    active = w > 0.0
    w, d, ya = w[active], x[active] - x0, y[active]
    m = len(ya)
    eye = scipy.sparse.identity(m, format="csr")
    a_eq = scipy.sparse.hstack(
        [scipy.sparse.csr_matrix(np.column_stack([np.ones(m), d])), eye, -eye], format="csr"
    )
    cost = np.concatenate([[0.0, 0.0], tau * w, (1.0 - tau) * w])
    bounds = [(None, None), (None, None)] + [(0.0, None)] * (2 * m)
    res = linprog(cost, A_eq=a_eq, b_eq=ya, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed at x0 = {x0}: {res.message}")
    return float(res.x[0]), float(res.x[1])


def check_mean_curve(sample, curve) -> FitCheck:
    out = FitCheck()
    h = curve.spec.bandwidth.value
    for i in sample_indices(curve.grid.size):
        ref = mean_oracle(sample.x, sample.y, float(curve.grid[i]), h)
        err = abs(float(curve.values[i]) - ref)
        out.points += 1
        out.worst = max(out.worst, err)
        if not err <= MEAN_TOL:
            out.problems.append(f"mean fit at grid point {i} is off lstsq by {err:.3g}")
    return out


def check_median_curve(sample, curve) -> FitCheck:
    out = FitCheck()
    loss = curve.spec.loss
    h = curve.spec.bandwidth.value
    for i in sample_indices(curve.grid.size):
        x0 = float(curve.grid[i])
        out.points += 1
        try:
            b0, b1 = smoothing.local_linear_fit(sample, x0, h, loss)
        except smoothing.SmoothingError as exc:
            out.problems.append(f"grid point {i}: {exc}")
            continue
        if b0 != float(curve.values[i]):
            out.problems.append(f"grid point {i}: curve value differs from local_linear_fit")
        lp0, lp1 = check_loss_lp(sample.x, sample.y, x0, h, loss.tau)
        fitted = smoothing.check_loss_objective(sample, x0, h, loss.tau, b0, b1)
        optimum = smoothing.check_loss_objective(sample, x0, h, loss.tau, lp0, lp1)
        scale = max(optimum, 1e-15 * float(kernel_weights(sample.x, x0, h).sum()))
        gap = (fitted - optimum) / scale
        out.worst = max(out.worst, gap)
        if not gap <= MEDIAN_GAP_TOL:
            out.problems.append(
                f"median fit at grid point {i} is {gap:.3g} above the LP optimum"
            )
    return out


def check_curve(sample, curve) -> FitCheck:
    if curve.spec.loss.kind == "quadratic":
        return check_mean_curve(sample, curve)
    return check_median_curve(sample, curve)


def loc_value_problem(value) -> str | None:
    """Why a LOC value is invalid, or None: it must be finite and >= 0."""
    if value is None or not isinstance(value, (int, float)):
        return f"LOC value {value!r} is not a number"
    if not math.isfinite(value) or value < 0.0:
        return f"LOC value {value!r} is non-finite or negative"
    return None


def rank_identity_error(rank_loc: float, finite_i: float) -> tuple[float, bool]:
    """|rank LOC - I| and whether it is within rounding of zero."""
    err = abs(rank_loc - finite_i)
    return err, err <= IDENTITY_REL_TOL * abs(finite_i) + IDENTITY_ABS_TOL
