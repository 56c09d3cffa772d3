"""Data-distribution search algorithms driven by MHETA.

The paper's companion work [26] uses MHETA as the evaluation function
inside four search strategies — generalized binary search (GBS),
genetic, simulated annealing, and random — to pick a distribution at run
time.  The companion paper's text is not available, so these are
documented reconstructions sharing one contract: minimise
``MhetaModel.predict`` over GEN_BLOCK distributions.

All searches are deterministic (seeded) and report how many model
evaluations they spent — the quantity the paper's ~5.4 ms/evaluation
figure makes cheap.
"""

from repro.search.base import (
    BudgetedEvaluator,
    EvaluationCache,
    SearchAlgorithm,
    SearchResult,
    evaluate_batch,
)
from repro.search.gbs import GeneralizedBinarySearch
from repro.search.genetic import GeneticSearch
from repro.search.annealing import SimulatedAnnealingSearch
from repro.search.random_search import RandomSearch
from repro.search.exhaustive import SpectrumSweep

#: Every searcher by the name the CLI, the server and the 2-D layout
#: search expose; each takes ``(model, cluster, *, batch_size=...)``.
SEARCHERS = {
    "gbs": GeneralizedBinarySearch,
    "genetic": GeneticSearch,
    "annealing": SimulatedAnnealingSearch,
    "random": RandomSearch,
    "sweep": SpectrumSweep,
}

__all__ = [
    "BudgetedEvaluator",
    "EvaluationCache",
    "SearchAlgorithm",
    "SearchResult",
    "SEARCHERS",
    "GeneralizedBinarySearch",
    "GeneticSearch",
    "SimulatedAnnealingSearch",
    "RandomSearch",
    "SpectrumSweep",
    "evaluate_batch",
]
