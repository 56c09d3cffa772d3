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
* :mod:`repro.twod.jacobi2d` — a 2-D Jacobi emulator (built directly on
  the discrete-event engine: four-neighbour halo exchanges, out-of-core
  row-band streaming) and its MHETA-style analytical model, exact under
  ideal conditions like the 1-D pair;
* :mod:`repro.twod.search_space` — the quantitative version of the
  paper's "search space increases greatly" argument: candidate counts
  and evaluation budgets for 1-D vs 2-D at equal resolution;
* :mod:`repro.twod.search2d` — a working 2-D search (per-shape
  coordinate-descent GBS), demonstrating both that 2-D layouts *can* be
  searched and what that costs relative to the 1-D spectrum bisection.
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
from repro.twod.plan2d import EvaluationPlan2D
from repro.twod.search_space import SearchSpaceComparison, search_space_growth
from repro.twod.search2d import (
    SEARCHER_2D_FAMILIES,
    TwoDGbs,
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
    "EvaluationPlan2D",
    "SearchSpaceComparison",
    "search_space_growth",
    "SEARCHER_2D_FAMILIES",
    "TwoDGbs",
    "TwoDLayoutSearch",
    "TwoDSearchResult",
    "is_degenerate",
    "strip_candidates",
]
