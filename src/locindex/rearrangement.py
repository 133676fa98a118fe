"""Step functions, increasing rearrangement, and the LOC index.

A function h on [0, 1] deviates from a non-decreasing pattern by

    L(h) = integral over [0,1] of  t * (I_h(t) - h(t)) dt,

where I_h is the increasing rearrangement of h: the non-decreasing function
with the same distribution of values (Hardy, Littlewood and Polya, 1952).
L(h) is non-negative, zero exactly for non-decreasing h, invariant under
adding a constant, positively homogeneous, and additive over co-monotonic
summands -- which is why it is preferred here over sup- or L1-distances
between h and I_h.

For a piecewise-constant function with values tau_1..tau_m on the equal
subintervals ((i-1)/m, i/m] the integral collapses to an exact finite sum

    L = (1/m^2) * sum_i i * (tau_{(i)} - tau_i),

with tau_{(1)} <= ... <= tau_{(m)} the sorted values, i.e. the values of the
increasing rearrangement: the quantile function of the values' distribution
function G(x) = #{i : tau_i <= x} / m, which a sort gives without forming G.
A step function is therefore passed around as its values alone, a
non-empty finite 1-d array; ``loc_index`` evaluates the sum on them.  The
pipeline applies it to a fitted curve with m equal to the curve's grid size,
through ``step_from_curve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .smoothing import FittedCurve

__all__ = [
    "LocValue",
    "step_from_curve",
    "increasing_rearrangement",
    "loc_index",
]


@dataclass(frozen=True)
class LocValue:
    """A LOC index value."""

    value: float


def _taus(values) -> np.ndarray:
    """The step values tau_1..tau_m as a float vector, checked."""
    taus = np.asarray(values, dtype=float)
    if taus.ndim != 1 or taus.size < 1:
        raise ValueError("taus must be a non-empty 1-d vector")
    if not np.all(np.isfinite(taus)):
        raise ValueError("taus must be finite")
    return taus


def step_from_curve(curve: "FittedCurve") -> np.ndarray:
    """The step values of a grid-evaluated curve on m = grid_size equal pieces.

    The step values are exactly the curve values in grid order: the i-th
    grid point gives the value on the i-th piece ((i - 1)/m, i/m].  The grid
    spans [min(x), max(x)] with both ends included, so, mapped affinely onto
    [0, 1], grid point i sits at (i - 1)/(m - 1), not at the piece's
    midpoint (i - 1/2)/m; grid point 1 sits on piece 1's open left end.  So
    for a smooth curve the gap between the sum and the continuous LOC shrinks
    only as 1/m, halving with each doubling of m.
    """
    return curve.values


def increasing_rearrangement(values) -> np.ndarray:
    """The values of the non-decreasing step function with the same values.

    Viewed as a function, the result is the quantile function of the values'
    distribution function G(x) = #{i : tau_i <= x} / m: on piece i it takes
    the i-th smallest value.
    """
    return np.sort(_taus(values))


def loc_index(values) -> LocValue:
    """Exact LOC index of the step function with the values tau_1..tau_m.

    Evaluates (1/m^2) * sum_i i * (tau_{(i)} - tau_i).  The result is zero
    exactly when the values are already non-decreasing, and positive
    otherwise (up to float rounding of the sum).
    """
    taus = _taus(values)
    m = taus.size
    weights = np.arange(1, m + 1, dtype=float)
    gaps = increasing_rearrangement(taus) - taus
    return LocValue(value=float(np.dot(weights, gaps)) / (m * m))
