"""Tests for the distribution-search algorithms."""

import pytest

from repro.core import MhetaModel
from repro.distribution import balanced, block
from repro.exceptions import SearchError
from repro.instrument import collect_inputs
from repro.instrument.collect import MeasurementConfig
from repro.search import (
    BudgetedEvaluator,
    EvaluationCache,
    GeneralizedBinarySearch,
    GeneticSearch,
    RandomSearch,
    SearchAlgorithm,
    SimulatedAnnealingSearch,
    SpectrumSweep,
)
from repro.sim import PerturbationConfig
from tests.conftest import make_jacobi_like


@pytest.fixture(scope="module")
def search_setup():
    """A heterogeneous cluster + model where Bal clearly beats Blk."""
    from repro.cluster import baseline_cluster

    cluster = baseline_cluster(name="search-test")
    nodes = [
        n.with_(cpu_power=[0.25, 0.5, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0][i])
        for i, n in enumerate(cluster.nodes)
    ]
    cluster = cluster.with_nodes(nodes)
    program = make_jacobi_like(n_rows=2048, cols=512, iterations=5)
    inputs = collect_inputs(
        cluster,
        program,
        block(cluster, program.n_rows),
        perturbation=PerturbationConfig.none(),
        measurement=MeasurementConfig.perfect(),
    )
    model = MhetaModel(program, cluster, inputs)
    return cluster, program, model


class TestEvaluationCache:
    def test_caches_repeats(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        d = block(cluster, program.n_rows)
        cache(d)
        cache(d)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_candidates_counted(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        cache(block(cluster, program.n_rows))
        cache(balanced(cluster, program.n_rows))
        assert cache.evaluations == 2


ALGORITHMS = ["gbs", "genetic", "annealing", "random", "sweep"]


def make_search(name, model, cluster):
    if name == "gbs":
        return GeneralizedBinarySearch(model, cluster)
    if name == "genetic":
        return GeneticSearch(model, population=8, generations=5)
    if name == "annealing":
        return SimulatedAnnealingSearch(model, steps=60)
    if name == "random":
        return RandomSearch(model, samples=40)
    return SpectrumSweep(model, cluster, steps_per_leg=4)


class TestAllAlgorithms:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_beats_block_distribution(self, name, search_setup):
        cluster, program, model = search_setup
        blk_time = model.predict(block(cluster, program.n_rows))
        result = make_search(name, model, cluster).search(budget=120)
        assert result.predicted_seconds <= blk_time
        assert result.best.n_rows == program.n_rows
        assert min(result.best.counts) >= 1

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_budget_respected(self, name, search_setup):
        cluster, program, model = search_setup
        result = make_search(name, model, cluster).search(budget=25)
        assert result.evaluations <= 25

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_deterministic(self, name, search_setup):
        cluster, program, model = search_setup
        a = make_search(name, model, cluster).search(budget=60)
        b = make_search(name, model, cluster).search(budget=60)
        assert a.best == b.best
        assert a.predicted_seconds == b.predicted_seconds

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_trajectory_monotone(self, name, search_setup):
        cluster, program, model = search_setup
        result = make_search(name, model, cluster).search(budget=60)
        traj = result.trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))


class TestGbsQuality:
    def test_gbs_close_to_exhaustive_sweep(self, search_setup):
        cluster, program, model = search_setup
        gbs = GeneralizedBinarySearch(model, cluster).search(budget=150)
        sweep = SpectrumSweep(model, cluster, steps_per_leg=16).search(
            budget=200
        )
        assert gbs.predicted_seconds <= sweep.predicted_seconds * 1.05

    def test_gbs_finds_balanced_for_cpu_only_heterogeneity(self, search_setup):
        cluster, program, model = search_setup
        result = GeneralizedBinarySearch(model, cluster).search(budget=150)
        bal_time = model.predict(
            balanced(cluster, program.n_rows)
        )
        assert result.predicted_seconds <= bal_time * 1.02


class TestBudgetHardCap:
    """The budget is a hard cap: no path — including scoring the
    algorithm's final answer — may perform evaluation #budget+1."""

    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("budget", [1, 3, 10])
    def test_tight_budgets_never_exceeded(self, name, budget, search_setup):
        cluster, program, model = search_setup
        result = make_search(name, model, cluster).search(budget=budget)
        assert result.evaluations <= budget

    def test_unevaluated_answer_does_not_cost_extra(self, search_setup):
        """Regression: an algorithm returning a distribution it never
        scored used to trigger evaluation #budget+1 in ``search()``."""
        cluster, program, model = search_setup

        class SneakySearch(SearchAlgorithm):
            name = "sneaky"

            def _run(self, evaluate, start):
                evaluate(block(cluster, program.n_rows))
                # Final answer was never passed through ``evaluate``.
                return balanced(cluster, program.n_rows)

        result = SneakySearch(model).search(budget=1)
        assert result.evaluations <= 1
        # The unscored answer was discarded for the best *cached* one.
        assert result.best == block(cluster, program.n_rows)

    def test_unevaluated_answer_scored_within_budget(self, search_setup):
        cluster, program, model = search_setup

        class LazySearch(SearchAlgorithm):
            name = "lazy"

            def _run(self, evaluate, start):
                return balanced(cluster, program.n_rows)

        result = LazySearch(model).search(budget=5)
        assert result.evaluations == 1
        assert result.best == balanced(cluster, program.n_rows)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_cache_counters_reported(self, name, search_setup):
        cluster, program, model = search_setup
        result = make_search(name, model, cluster).search(budget=60)
        assert result.cache_hits >= 0
        assert result.evaluations >= 1


class _CountingModel:
    """Wrap a model, counting invocations per distribution."""

    def __init__(self, model):
        self._model = model
        self.scalar_calls = {}
        self.report_calls = {}

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict(
        self,
        distribution,
        iterations=None,
        *,
        batch=False,
        report=False,
        telemetry=None,
    ):
        if batch:
            for d in distribution:
                self.scalar_calls[d.counts] = (
                    self.scalar_calls.get(d.counts, 0) + 1
                )
            return self._model.predict(distribution, iterations, batch=True)
        key = distribution.counts
        if report:
            self.report_calls[key] = self.report_calls.get(key, 0) + 1
        else:
            self.scalar_calls[key] = self.scalar_calls.get(key, 0) + 1
        return self._model.predict(
            distribution, iterations, report=report, telemetry=telemetry
        )


class TestGbsEvaluationAccounting:
    def test_bottleneck_reports_cached_and_counted(self, search_setup):
        """Regression: GBS's hill climb called ``model.predict``
        directly, bypassing the cache — uncounted model evaluations."""
        cluster, program, model = search_setup
        counting = _CountingModel(model)
        result = GeneralizedBinarySearch(counting, cluster).search(budget=120)
        # Every scalar invocation is a counted (distinct) evaluation.
        assert sum(counting.scalar_calls.values()) == result.evaluations
        # Full reports are cached: at most one model run per distribution.
        assert counting.report_calls
        assert max(counting.report_calls.values()) == 1
        # GBS only inspects candidates it already paid for.
        assert set(counting.report_calls) <= set(counting.scalar_calls)

    def test_report_on_new_distribution_is_budgeted(self, search_setup):
        from repro.search.base import _BudgetExhausted

        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        evaluator = BudgetedEvaluator(model, cache, budget=1, trajectory=[])
        report = evaluator.report(block(cluster, program.n_rows))
        assert report.total_seconds > 0
        assert cache.evaluations == 1  # the report counted as an evaluation
        with pytest.raises(_BudgetExhausted):
            evaluator.report(balanced(cluster, program.n_rows))
        # A repeated report is served from the cache, not the budget.
        assert evaluator.report(block(cluster, program.n_rows)) is report


class TestSearchValidation:
    def test_zero_budget_raises(self, search_setup):
        cluster, program, model = search_setup
        with pytest.raises(SearchError):
            RandomSearch(model).search(budget=0)

    def test_start_distribution_used(self, search_setup):
        cluster, program, model = search_setup
        start = balanced(cluster, program.n_rows)
        result = RandomSearch(model, samples=0).search(budget=5, start=start)
        assert result.best == start

    def test_result_str(self, search_setup):
        cluster, program, model = search_setup
        result = RandomSearch(model, samples=5).search(budget=10)
        text = str(result)
        assert "random" in text and "evaluations" in text


class TestBatchedEvaluation:
    """``BudgetedEvaluator.batch``: dedup, accounting, hard budget."""

    def _evaluator(self, model, budget):
        cache = EvaluationCache(model.predict)
        trajectory = []
        from repro.search.base import BudgetedEvaluator

        return BudgetedEvaluator(model, cache, budget, trajectory), cache, trajectory

    def test_batch_matches_serial_values(self, search_setup):
        cluster, program, model = search_setup
        evaluator, cache, _ = self._evaluator(model, budget=10)
        cands = [block(cluster, program.n_rows), balanced(cluster, program.n_rows)]
        values = evaluator.batch(cands)
        assert values == [model.predict(d) for d in cands]

    def test_batch_dedup_within_batch(self, search_setup):
        cluster, program, model = search_setup
        evaluator, cache, _ = self._evaluator(model, budget=10)
        d = block(cluster, program.n_rows)
        values = evaluator.batch([d, d, d])
        assert values[0] == values[1] == values[2]
        # One charged miss, two in-batch repeats served as hits.
        assert cache.misses == 1
        assert cache.hits == 2

    def test_batch_dedup_against_cache(self, search_setup):
        cluster, program, model = search_setup
        evaluator, cache, _ = self._evaluator(model, budget=10)
        d = block(cluster, program.n_rows)
        evaluator(d)  # serial evaluation seeds the cache
        assert cache.misses == 1 and cache.hits == 0
        values = evaluator.batch([d, balanced(cluster, program.n_rows)])
        assert len(values) == 2
        # The pre-cached candidate is a hit, the new one a miss.
        assert cache.misses == 2
        assert cache.hits == 1

    def test_batch_truncates_at_budget_boundary(self, search_setup):
        from repro.search.base import _BudgetExhausted

        cluster, program, model = search_setup
        evaluator, cache, trajectory = self._evaluator(model, budget=2)
        blk = block(cluster, program.n_rows)
        bal = balanced(cluster, program.n_rows)
        third = blk.moved(0, 1, 5)
        with pytest.raises(_BudgetExhausted):
            evaluator.batch([blk, bal, third])
        # Exactly the affordable prefix was evaluated and recorded.
        assert cache.evaluations == 2
        assert blk.counts in cache and bal.counts in cache
        assert third.counts not in cache
        assert len(trajectory) == 2

    def test_batch_repeats_before_cut_still_served(self, search_setup):
        """A repeat of an affordable candidate costs nothing, so it is
        served even when a later distinct miss exhausts the budget."""
        from repro.search.base import _BudgetExhausted

        cluster, program, model = search_setup
        evaluator, cache, trajectory = self._evaluator(model, budget=1)
        blk = block(cluster, program.n_rows)
        bal = balanced(cluster, program.n_rows)
        with pytest.raises(_BudgetExhausted):
            evaluator.batch([blk, blk, bal])
        assert cache.evaluations == 1
        assert cache.hits == 1  # the in-batch repeat
        assert len(trajectory) == 2

    def test_batch_feeds_trajectory_running_best(self, search_setup):
        cluster, program, model = search_setup
        evaluator, _, trajectory = self._evaluator(model, budget=10)
        cands = [block(cluster, program.n_rows), balanced(cluster, program.n_rows)]
        evaluator.batch(cands)
        assert len(trajectory) == 2
        assert trajectory[1] <= trajectory[0]

    def test_batch_falls_back_without_vectorized_model(self, search_setup):
        """Models whose ``predict`` takes no ``batch=`` loop per
        candidate."""
        cluster, program, model = search_setup

        class ScalarOnly:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def predict(self, distribution, iterations=None):
                self.calls += 1
                return self._inner.predict(distribution, iterations)

        scalar_only = ScalarOnly(model)
        evaluator, cache, _ = self._evaluator(scalar_only, budget=10)
        cands = [block(cluster, program.n_rows), balanced(cluster, program.n_rows)]
        values = evaluator.batch(cands)
        assert scalar_only.calls == 2
        assert values == [model.predict(d) for d in cands]

    def test_evaluate_batch_helper_with_bare_callable(self, search_setup):
        from repro.search import evaluate_batch

        cluster, program, model = search_setup
        cands = [block(cluster, program.n_rows), balanced(cluster, program.n_rows)]
        values = evaluate_batch(model.predict, cands)
        assert values == [model.predict(d) for d in cands]

    def test_batch_size_validation(self, search_setup):
        cluster, program, model = search_setup
        with pytest.raises(SearchError):
            RandomSearch(model, batch_size=0)


class TestReportTrajectory:
    def test_report_on_new_distribution_feeds_trajectory(self, search_setup):
        """Regression: a budget-charged report used to skip the
        trajectory, desynchronising it from the evaluation count."""
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        trajectory = []
        evaluator = BudgetedEvaluator(model, cache, budget=5, trajectory=trajectory)
        evaluator.report(block(cluster, program.n_rows))
        assert len(trajectory) == 1
        # A repeated report is free and adds nothing.
        evaluator.report(block(cluster, program.n_rows))
        assert len(trajectory) == 1
        # A report on an already-evaluated distribution adds nothing.
        bal = balanced(cluster, program.n_rows)
        evaluator(bal)
        assert len(trajectory) == 2
        evaluator.report(bal)
        assert len(trajectory) == 2


class TestRunningBest:
    def test_best_is_tracked_on_insert(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        assert cache.best() is None
        cache.put((1, 2), 2.0)
        cache.put((3, 4), 1.0)
        cache.put((5, 6), 3.0)
        assert cache.best() == ((3, 4), 1.0)

    def test_best_keeps_earliest_key_on_tie(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        cache.put((1, 2), 1.0)
        cache.put((3, 4), 1.0)
        assert cache.best() == ((1, 2), 1.0)

    def test_put_many_records_all(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        cache.put_many([(1, 2), (3, 4)], [2.0, 1.5])
        assert cache.evaluations == 2
        assert cache.best() == ((3, 4), 1.5)

    def test_put_many_length_mismatch_raises(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        with pytest.raises(SearchError):
            cache.put_many([(1, 2)], [1.0, 2.0])


class TestEvaluationCachePut:
    def test_put_records_external_evaluation(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        d = block(cluster, program.n_rows)
        cache.put(d.counts, 1.25)
        assert cache(d) == 1.25  # served from cache, not re-evaluated
        assert cache.misses == 1 and cache.hits == 1

    def test_put_matching_value_is_noop(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        d = block(cluster, program.n_rows)
        value = cache(d)
        cache.put(d.counts, value)  # exact repeat
        cache.put(d.counts, value * (1 + 1e-12))  # rounding noise
        assert cache.value(d.counts) == value

    def test_put_conflicting_value_raises(self, search_setup):
        cluster, program, model = search_setup
        cache = EvaluationCache(model.predict)
        d = block(cluster, program.n_rows)
        value = cache(d)
        with pytest.raises(SearchError, match="conflicting evaluations"):
            cache.put(d.counts, value * 1.01)
        # The original value survives the rejected insert.
        assert cache.value(d.counts) == value
