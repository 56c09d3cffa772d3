"""Common search machinery: evaluation cache, result record, base class."""

from __future__ import annotations

import abc
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.model import MhetaModel
from repro.core.report import PredictionReport
from repro.distribution.genblock import GenBlock, largest_remainder_round
from repro.exceptions import SearchError
from repro.obs import NULL_RECORDER, Recorder, as_recorder
from repro.util.rng import stream

__all__ = [
    "EvaluationCache",
    "BudgetedEvaluator",
    "SearchResult",
    "SearchAlgorithm",
    "evaluate_batch",
]


class EvaluationCache:
    """Memoised MHETA evaluations.

    Search algorithms revisit distributions constantly (GBS re-evaluates
    interval endpoints, genetic populations converge); caching keeps the
    evaluation count equal to the number of *distinct* candidates.
    """

    def __init__(self, evaluate: Callable[[GenBlock], float]) -> None:
        self._evaluate = evaluate
        self._cache: Dict[Tuple[int, ...], float] = {}
        self.misses = 0
        self.hits = 0
        # Running best, maintained on insert: best() is called inside
        # search loops, so it must not scan the whole store.
        self._best_key: Optional[Tuple[int, ...]] = None
        self._best_value = math.inf

    def _record(self, key: Tuple[int, ...], value: float) -> None:
        """Insert a brand-new evaluation and update the running best.
        A strict ``<`` keeps the *earliest* inserted key on ties, the
        same answer a full in-insertion-order scan would give."""
        self._cache[key] = value
        self.misses += 1
        if value < self._best_value:
            self._best_key = key
            self._best_value = value

    def __call__(self, distribution: GenBlock) -> float:
        key = distribution.counts
        value = self._cache.get(key)
        if value is None:
            value = self._evaluate(distribution)
            self._record(key, value)
        else:
            self.hits += 1
        return value

    def __contains__(self, key: Tuple[int, ...]) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def value(self, key: Tuple[int, ...]) -> float:
        """Cached value for ``key`` (raises ``KeyError`` if absent) —
        a pure lookup, never an evaluation."""
        return self._cache[key]

    #: Tolerance for re-inserted values: the same distribution evaluated
    #: twice must produce the same prediction (the model is pure), so
    #: anything beyond rounding noise is a double-evaluation bug.
    PUT_REL_TOL = 1e-9

    def put(self, key: Tuple[int, ...], value: float) -> None:
        """Record an evaluation performed outside the cache (e.g. a full
        prediction report whose total is the scalar value).

        Re-inserting an existing key with a matching value is a no-op;
        a *conflicting* value raises :class:`SearchError` — silently
        keeping either number would mask a double-evaluation bug (two
        code paths disagreeing about the same distribution).
        """
        existing = self._cache.get(key)
        if existing is None:
            self._record(key, value)
            return
        if not math.isclose(
            existing, value, rel_tol=self.PUT_REL_TOL, abs_tol=1e-12
        ):
            raise SearchError(
                f"conflicting evaluations for distribution {key}: cached "
                f"{existing!r} vs new {value!r} (beyond rel_tol="
                f"{self.PUT_REL_TOL}); the evaluation function is not "
                "deterministic or two code paths disagree"
            )

    def put_many(
        self,
        keys: Sequence[Tuple[int, ...]],
        values: Sequence[float],
    ) -> None:
        """Bulk :meth:`put` for batched evaluations: one call records a
        whole population's worth of externally computed values, with the
        same conflict detection per key."""
        if len(keys) != len(values):
            raise SearchError("put_many keys and values differ in length")
        for key, value in zip(keys, values):
            self.put(key, float(value))

    def best(self) -> Optional[Tuple[Tuple[int, ...], float]]:
        """The best ``(counts, value)`` pair seen, or ``None`` — O(1),
        tracked on insert rather than scanned on demand."""
        if self._best_key is None:
            return None
        return self._best_key, self._best_value

    @property
    def evaluations(self) -> int:
        """Distinct model evaluations performed."""
        return self.misses


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a distribution search."""

    best: GenBlock
    predicted_seconds: float
    evaluations: int  #: distinct MHETA evaluations spent
    trajectory: Tuple[float, ...] = field(default_factory=tuple)
    algorithm: str = ""
    cache_hits: int = 0  #: evaluations avoided by the cache

    def __str__(self) -> str:
        return (
            f"{self.algorithm}: {self.predicted_seconds:.3f}s predicted with "
            f"{list(self.best.counts)} after {self.evaluations} evaluations"
        )


class BudgetedEvaluator:
    """The callable handed to :meth:`SearchAlgorithm._run`.

    Wraps the shared :class:`EvaluationCache` with a hard budget: any
    attempt to evaluate a *new* distribution past the budget raises
    :class:`_BudgetExhausted`, so no algorithm can spend evaluation
    ``budget + 1``.  Beyond the scalar call it exposes :meth:`report`,
    the budgeted path for full prediction reports (per-node breakdowns
    for bottleneck inspection) — report misses on unseen distributions
    are counted and capped exactly like scalar evaluations.
    """

    def __init__(
        self,
        model: MhetaModel,
        cache: EvaluationCache,
        budget: int,
        trajectory: List[float],
        telemetry: Optional[Recorder] = None,
    ) -> None:
        self._model = model
        self._cache = cache
        self._budget = budget
        self._trajectory = trajectory
        self._telemetry = as_recorder(telemetry)
        self._reports: Dict[Tuple[int, ...], PredictionReport] = {}
        # Models whose predict() takes batch= score a round's misses in
        # one call; scalar-only stubs are called per candidate.
        self._batched = "batch" in inspect.signature(model.predict).parameters

    def _guard(self, key: Tuple[int, ...]) -> None:
        if key not in self._cache and self._cache.evaluations >= self._budget:
            raise _BudgetExhausted()

    def _feed_trajectory(self, value: float) -> None:
        """Append the running best after one evaluation — every budgeted
        path (scalar, report, batch) feeds the trajectory identically."""
        if not self._trajectory or value < self._trajectory[-1]:
            self._trajectory.append(value)
        else:
            self._trajectory.append(self._trajectory[-1])

    def __call__(self, distribution: GenBlock) -> float:
        self._guard(distribution.counts)
        value = self._cache(distribution)
        self._feed_trajectory(value)
        return value

    def report(self, distribution: GenBlock) -> PredictionReport:
        """Full prediction report, cached and budget-accounted.

        A report for a distribution never seen before counts as one
        evaluation (it *is* one model run) and respects the budget — and
        feeds the trajectory, exactly like a scalar evaluation; a report
        for an already-evaluated distribution is free budget-wise — the
        candidate was already paid for.
        """
        key = distribution.counts
        rep = self._reports.get(key)
        if rep is None:
            charged = key not in self._cache
            self._guard(key)
            rep = self._model.predict(distribution, report=True)
            self._reports[key] = rep
            self._cache.put(key, rep.total_seconds)
            if charged:
                self._feed_trajectory(rep.total_seconds)
        return rep

    def batch(self, distributions: Sequence[GenBlock]) -> List[float]:
        """Budget- and cache-aware population scoring.

        The candidates are deduplicated — against the shared
        :class:`EvaluationCache` and within the batch — and only the
        *distinct misses* are charged to the budget and sent through the
        model's vectorized ``predict(candidates, batch=True)`` in one
        pass.  Repeats are cache hits, exactly as if the candidates had
        been evaluated one at a time.

        The budget stays a hard cap: when the distinct misses outrun the
        remaining budget, the batch is truncated at the boundary — every
        candidate *before* the first unaffordable miss is evaluated,
        recorded and fed to the trajectory, then
        :class:`_BudgetExhausted` is raised, mirroring what the serial
        loop would have done at that same candidate.
        """
        dists = list(distributions)
        keys = [d.counts for d in dists]
        remaining = max(self._budget - self._cache.evaluations, 0)
        first_seen: Dict[Tuple[int, ...], int] = {}
        to_evaluate: List[GenBlock] = []
        cut = len(dists)
        for i, key in enumerate(keys):
            if key in self._cache or key in first_seen:
                continue
            if len(to_evaluate) >= remaining:
                cut = i
                break
            first_seen[key] = i
            to_evaluate.append(dists[i])
        rec = self._telemetry
        if rec:
            rec.observe("search/round_candidates", len(dists))
            rec.observe("search/round_distinct_misses", len(to_evaluate))
        if to_evaluate:
            if self._batched:
                values = self._model.predict(to_evaluate, batch=True)
            else:
                values = [self._model.predict(d) for d in to_evaluate]
            self._cache.put_many(
                [d.counts for d in to_evaluate],
                [float(v) for v in values],
            )
        results: List[float] = []
        for i in range(cut):
            key = keys[i]
            if first_seen.get(key) == i:
                # The charged miss itself: put_many already counted it.
                value = self._cache.value(key)
            else:
                value = self._cache(dists[i])  # hit accounting
            self._feed_trajectory(value)
            results.append(value)
        if cut < len(dists):
            raise _BudgetExhausted()
        return results


def evaluate_batch(
    evaluate: Callable[[GenBlock], float],
    candidates: Sequence[GenBlock],
) -> List[float]:
    """Score ``candidates`` through ``evaluate.batch`` when available
    (the :class:`BudgetedEvaluator` population path — dedup, bulk model
    evaluation, budget truncation), falling back to per-candidate calls
    for bare callables (unit-test stubs, custom drivers)."""
    batch = getattr(evaluate, "batch", None)
    if batch is not None:
        return batch(candidates)
    return [evaluate(d) for d in candidates]


class SearchAlgorithm(abc.ABC):
    """Base class: minimise predicted execution time over GEN_BLOCK
    distributions of ``model.program.n_rows`` rows.

    Subclasses implement :meth:`_run` against the shared evaluation
    cache.  Every node always keeps at least one row (the paper's system
    uses every processor).

    Every searcher shares one constructor shape — ``Searcher(model,
    cluster=None, *, batch_size=64, seed_label="", <strategy knobs>)``
    — and one ``search(budget, *, start, batch_size, rng, telemetry)``
    signature returning a :class:`SearchResult`.  ``cluster`` is
    required by strategies that exploit the cluster's structure (GBS
    seeds from relative powers, the spectrum sweep walks its legs) and
    accepted-and-ignored by the purely stochastic ones, so drivers can
    construct any searcher uniformly.

    ``batch_size`` bounds the candidate populations a strategy scores
    per :func:`evaluate_batch` call (proposal pools, sample chunks,
    enumeration chunks); strategies whose population has a natural size
    — a GA generation, a GBS leg grid — ignore it.
    """

    name = "search"

    #: Set by strategies that cannot run without the cluster structure.
    requires_cluster = False

    def __init__(
        self,
        model: MhetaModel,
        cluster: Optional[ClusterSpec] = None,
        *,
        batch_size: int = 64,
        seed_label: str = "",
    ) -> None:
        self.model = model
        self.cluster = cluster
        if self.requires_cluster and cluster is None:
            raise SearchError(f"{self.name} requires the cluster spec")
        self.n_rows = model.program.n_rows
        self.n_nodes = model.n_nodes
        if self.n_rows < self.n_nodes:
            raise SearchError("fewer rows than nodes")
        if batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self._seed_label = seed_label or self.name
        self._rng_override: Optional[np.random.Generator] = None

    # -- helpers shared by concrete searches ---------------------------------

    def _rng(self) -> np.random.Generator:
        if self._rng_override is not None:
            return self._rng_override
        return stream(
            "search",
            self._seed_label,
            self.model.program.name,
            self.n_rows,
            self.n_nodes,
        )

    def _normalise(self, shares: np.ndarray) -> GenBlock:
        """Round non-negative shares to a valid distribution (sum and
        minimum-1 preserved)."""
        return GenBlock(
            largest_remainder_round(
                np.maximum(np.asarray(shares, dtype=float), 0.0),
                self.n_rows,
                minimum=1,
            )
        )

    def _random_distribution(self, rng: np.random.Generator) -> GenBlock:
        shares = rng.dirichlet(np.ones(self.n_nodes))
        return self._normalise(shares * self.n_rows)

    # -- public API ------------------------------------------------------------

    def search(
        self,
        budget: int = 200,
        *,
        start: Optional[GenBlock] = None,
        batch_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Recorder] = None,
    ) -> SearchResult:
        """Run the search with at most ``budget`` distinct evaluations.

        The budget is a hard cap: every path that could evaluate a new
        distribution — including scoring the algorithm's final answer —
        goes through the budgeted evaluator, so ``result.evaluations <=
        budget`` always holds.

        ``batch_size`` overrides the constructor's population bound for
        this run; ``rng`` replaces the deterministic per-(algorithm,
        program, shape) stream; ``telemetry`` records evaluations spent,
        cache hits, per-round candidate counts, and the best-so-far
        trajectory into a :class:`repro.obs.Recorder`.
        """
        if budget < 1:
            raise SearchError("budget must be >= 1")
        rec = as_recorder(telemetry)
        cache = EvaluationCache(self.model.predict)
        trajectory: List[float] = []
        evaluate = BudgetedEvaluator(
            self.model, cache, budget, trajectory, telemetry=rec
        )
        saved_batch = self.batch_size
        if batch_size is not None:
            if batch_size < 1:
                raise SearchError("batch_size must be >= 1")
            self.batch_size = int(batch_size)
        self._rng_override = rng

        best: Optional[GenBlock] = None
        try:
            with rec.span(f"search/{self.name}"):
                try:
                    best = self._run(evaluate, start)
                except _BudgetExhausted:
                    pass
                if best is not None and best.counts not in cache:
                    # The algorithm answered with a distribution it never
                    # scored; score it within the remaining budget or fall
                    # back to the best cached candidate.  Never evaluation
                    # #budget+1.
                    try:
                        evaluate(best)
                    except _BudgetExhausted:
                        best = None
        finally:
            self.batch_size = saved_batch
            self._rng_override = None
        # The best seen so far, even if the algorithm was cut short.
        cached_best = cache.best()
        if cached_best is not None:
            key, value = cached_best
            if best is None or value <= cache.value(best.counts):
                best = GenBlock(key)
        if best is None:
            raise SearchError("search performed no evaluations")
        result = SearchResult(
            best=best,
            predicted_seconds=cache.value(best.counts),
            evaluations=cache.evaluations,
            trajectory=tuple(trajectory),
            algorithm=self.name,
            cache_hits=cache.hits,
        )
        if rec:
            rec.count("search/runs")
            rec.count("search/evaluations", result.evaluations)
            rec.count("search/cache_hits", result.cache_hits)
            rec.set(f"search/{self.name}/budget", budget)
            rec.set(f"search/{self.name}/budget_spent", result.evaluations)
            rec.set(
                f"search/{self.name}/best_seconds", result.predicted_seconds
            )
            for value in trajectory:
                rec.observe("search/best_so_far", value)
        return result

    @abc.abstractmethod
    def _run(
        self,
        evaluate: Callable[[GenBlock], float],
        start: Optional[GenBlock],
    ) -> GenBlock:
        """Run the strategy; return its final answer.  ``evaluate``
        raises once the budget is exhausted; it also offers
        ``evaluate.report(dist)`` for budgeted per-node breakdowns."""


class _BudgetExhausted(Exception):
    pass
