"""Two-dimensional data distributions (the paper's §5.1 extension).

"The MHETA model extends to two-dimensional data distributions, but
such distributions are problematic for run-time data distribution
systems because the search space increases greatly.  Hence, we focus in
this paper on only one-dimensional distributions."  (Section 5.1.)

This package implements the extension the paper describes and then
declines, for the stencil workload where 2-D decomposition matters
(Jacobi):

* :mod:`repro.twod.distribution2d` — ``GenBlock2D``: an R x C processor
  grid with variable row bands and column bands (the 2-D analogue of
  GEN_BLOCK);
* :mod:`repro.twod.jacobi2d` — a 2-D Jacobi emulator (each rank lowered
  into the 1-D emulator's op tapes — tile sweep, out-of-core row-band
  streaming, four-neighbour halo exchanges, the residual allreduce — and
  run on its one route) and its MHETA-style analytical model, exact
  under ideal conditions like the 1-D pair;
* :mod:`repro.twod.search_space` — the quantitative version of the
  paper's "search space increases greatly" argument: candidate counts
  and evaluation budgets for 1-D vs 2-D at equal resolution;
* :mod:`repro.twod.search2d` — a working 2-D search (every searcher
  family over every grid shape; the default is a per-shape coordinate
  descent), demonstrating both that 2-D layouts *can* be searched and
  what that costs relative to the 1-D spectrum bisection.
"""

from repro.twod.distribution2d import (
    GenBlock2D,
    block2d,
    balanced2d,
    factor_pairs,
)
from repro.twod.jacobi2d import (
    Jacobi2DSpec,
    TwoDEmulator,
    TwoDModel,
    TwoDNodeReport,
    TwoDReport,
    build_2d_model,
)
from repro.twod.search_space import SearchSpaceComparison, search_space_growth
from repro.twod.search2d import (
    TwoDLayoutSearch,
    TwoDSearchResult,
    is_degenerate,
    strip_candidates,
)

__all__ = [
    "GenBlock2D",
    "block2d",
    "balanced2d",
    "factor_pairs",
    "Jacobi2DSpec",
    "TwoDEmulator",
    "TwoDModel",
    "TwoDReport",
    "TwoDNodeReport",
    "build_2d_model",
    "SearchSpaceComparison",
    "search_space_growth",
    "TwoDLayoutSearch",
    "TwoDSearchResult",
    "is_degenerate",
    "strip_candidates",
]
