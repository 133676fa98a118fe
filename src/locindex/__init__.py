"""Measuring lack of co-monotonicity (LOC) between paired variables.

The pipeline: normalize raw marks to [0, 1], fit a conditional-mean or
conditional-median curve to each ordered scatterplot by local linear
smoothing with a plug-in bandwidth, transfer the fitted curve onto an
equal-width step function, and evaluate the exact LOC index -- the weighted
gap between the curve and its increasing rearrangement.  Rank-based
coefficients (Spearman, Liebscher's zeta, the finite-population I) live
alongside for comparison, tied together by the identity
loc_index(rank_step_function(s)) == finite_population_I(s).

Every name a module lists in its ``__all__`` is exported here.
"""

from . import association, bandwidth, dataset, rearrangement, smoothing
from .association import *  # noqa: F403
from .bandwidth import *  # noqa: F403
from .dataset import *  # noqa: F403
from .rearrangement import *  # noqa: F403
from .smoothing import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*association.__all__, *bandwidth.__all__, *dataset.__all__,
           *rearrangement.__all__, *smoothing.__all__]
