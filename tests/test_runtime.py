"""Tests for the adaptive runtime and redistribution model."""

import pytest

from repro.cluster import baseline_cluster, config_dc
from repro.distribution import GenBlock, balanced, block
from repro.exceptions import ModelError
from repro.runtime import AdaptiveRuntime, RedistributionModel
from repro.runtime.redistribution import _moved_segments
from repro.search import RandomSearch
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.util.units import mib
from tests.conftest import make_jacobi_like


class TestMovedSegments:
    def test_identical_distributions_move_nothing(self):
        d = GenBlock([10, 10, 10])
        assert _moved_segments(d, d) == []

    def test_simple_shift(self):
        old = GenBlock([10, 10])
        new = GenBlock([5, 15])
        segments = _moved_segments(old, new)
        assert segments == [(5, 10, 0, 1)]

    def test_full_reversal(self):
        old = GenBlock([10, 0])
        new = GenBlock([0, 10])
        assert segments_total(_moved_segments(old, new)) == 10

    def test_mismatched_raise(self):
        with pytest.raises(ModelError):
            _moved_segments(GenBlock([5]), GenBlock([5, 5]))


def segments_total(segments):
    return sum(stop - start for start, stop, _, _ in segments)


class TestRedistributionModel:
    @pytest.fixture
    def model(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        return RedistributionModel(base_cluster, program), program

    def test_noop_costs_nothing(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        estimate = redis.estimate(d, d)
        assert estimate.is_noop
        assert estimate.seconds == 0.0

    def test_cost_scales_with_moved_rows(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        small = redis.estimate(d, d.moved(0, 1, 16))
        large = redis.estimate(d, d.moved(0, 1, 160))
        assert large.seconds > small.seconds
        assert large.moved_rows == 160

    def test_bytes_conservation(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        estimate = redis.estimate(d, d.moved(2, 5, 64))
        assert sum(estimate.per_node_out_bytes) == pytest.approx(
            sum(estimate.per_node_in_bytes)
        )
        assert estimate.per_node_out_bytes[2] > 0
        assert estimate.per_node_in_bytes[5] > 0

    def test_out_of_core_endpoints_cost_more(self, base_cluster):
        program = make_jacobi_like(n_rows=8192, cols=8192)
        roomy = RedistributionModel(base_cluster, program)
        tight_cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(2)) for n in base_cluster.nodes]
        )
        tight = RedistributionModel(tight_cluster, program)
        d = block(base_cluster, program.n_rows)
        new = d.moved(0, 7, 512)
        assert tight.estimate(d, new).seconds > roomy.estimate(d, new).seconds

    def test_worth_switching_logic(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        new = d.moved(0, 1, 200)
        cost = redis.estimate(d, new).seconds
        assert redis.worth_switching(d, new, cost, remaining_iterations=10)
        assert not redis.worth_switching(
            d, new, cost / 1000, remaining_iterations=1
        )
        assert not redis.worth_switching(d, new, -1.0, 100)
        assert not redis.worth_switching(d, new, 1.0, 0)


class TestAdaptiveRuntime:
    def _runtime(self, cluster=None, **kwargs):
        cluster = cluster or config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=40)
        return AdaptiveRuntime(cluster, program, **kwargs), program

    def test_beats_static_on_dc(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.switched
        assert report.adaptive_seconds < report.static_seconds
        assert report.speedup_vs_static > 1.0

    def test_report_totals_consistent(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.adaptive_seconds == pytest.approx(
            report.instrumented_seconds
            + report.search_wall_seconds
            + report.redistribution_seconds
            + report.remaining_seconds
        )

    def test_prediction_matches_reality(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.remaining_seconds == pytest.approx(
            report.predicted_remaining_seconds, rel=0.10
        )

    def test_homogeneous_cluster_keeps_start(self):
        cluster = baseline_cluster()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        runtime = AdaptiveRuntime(cluster, program)
        report = runtime.run()
        # Nothing to gain: Blk is already balanced and in core.
        assert not report.switched
        assert report.redistribution_seconds == 0.0

    def test_custom_search_used(self):
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        # A search that cannot find anything: keeps the start.
        runtime = AdaptiveRuntime(cluster, program, search_budget=1)
        report = runtime.run()
        assert report.search_evaluations <= 1

    def test_custom_start_distribution(self):
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        start = balanced(cluster, program.n_rows)
        report = AdaptiveRuntime(cluster, program).run(start=start)
        assert report.start_distribution == start
        # Starting at the optimum: no switch needed.
        assert not report.switched

    def test_single_iteration_static_run(self):
        """Nothing remains after the instrumented iteration: no
        prediction is asked for, nothing is switched or run."""
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=1)
        report = AdaptiveRuntime(cluster, program).run()
        assert not report.switched
        assert report.redistribution_seconds == 0.0
        assert report.remaining_seconds == 0.0
        assert report.predicted_remaining_seconds == 0.0
        assert report.rounds[0].iterations == 0
        assert report.static_seconds > 0.0

    def test_describe_renders(self):
        runtime, _ = self._runtime()
        text = runtime.run().describe()
        assert "speedup" in text
        assert "search" in text
