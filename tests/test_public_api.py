"""Public-API contract tests for the consolidated ``predict`` surface.

Two guarantees:

* the ``repro`` namespace is exactly the snapshot below (additions and
  removals must be deliberate);
* the one-candidate and batched ``predict`` paths agree to 1e-12 on a
  seed application x cluster grid, and the telemetry phase breakdown
  sums to the predicted total.
"""

import inspect

import pytest

import repro
from repro import (
    GeneralizedBinarySearch,
    GeneticSearch,
    RandomSearch,
    Recorder,
    SimulatedAnnealingSearch,
    SpectrumSweep,
)
from repro.apps import ConjugateGradientApp, JacobiApp
from repro.cluster import configs
from repro.distribution import block, spectrum
from repro.experiments import build_model

SCALE = 0.05

EXPECTED_ALL = {
    "__version__",
    # exceptions
    "ReproError", "ConfigurationError", "DistributionError",
    "ProgramStructureError", "SimulationError", "InstrumentationError",
    "ModelError", "SearchError",
    # cluster
    "NodeSpec", "NetworkSpec", "ClusterSpec", "baseline_cluster",
    "config_dc", "config_io", "config_hy1", "config_hy2",
    "table1_configs", "architecture_suite", "prefetch_suite",
    # program
    "Access", "Variable", "Stage", "CommPattern", "CommSpec",
    "ParallelSection", "ProgramStructure", "ProgramBuilder",
    # distribution
    "GenBlock", "block", "balanced", "in_core", "in_core_balanced",
    "spectrum", "SpectrumPoint",
    # placement
    "MemoryPlan", "VariablePlacement", "plan_memory",
    # sim
    "ClusterEmulator", "PerturbationConfig", "RunResult", "emulate",
    # instrument
    "MhetaInputs", "Microbenchmarks", "collect_inputs",
    "run_microbenchmarks",
    # core
    "MhetaModel", "PredictionReport",
    # obs
    "Recorder", "NullRecorder", "NULL_RECORDER", "as_recorder",
    # apps
    "Application", "AppConfig", "JacobiApp", "ConjugateGradientApp",
    "RnaPipelineApp", "LanczosApp", "MultigridApp",
    "paper_applications", "application_by_name",
    # search
    "SearchResult", "GeneralizedBinarySearch", "GeneticSearch",
    "SimulatedAnnealingSearch", "RandomSearch", "SpectrumSweep",
    # experiments
    "build_model", "run_spectrum",
    # runtime
    "AdaptiveRuntime", "AdaptiveReport", "RedistributionModel",
}

SEARCHERS = (
    GeneralizedBinarySearch,
    GeneticSearch,
    SimulatedAnnealingSearch,
    RandomSearch,
    SpectrumSweep,
)


@pytest.fixture(scope="module")
def seed_setup():
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    model = build_model(cluster, program)
    return cluster, program, model


class TestNamespaceSnapshot:
    def test_all_is_exactly_the_snapshot(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_everything_in_all_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestConsolidatedPredict:
    def test_serial_batch_and_vector_batch_agree(self, seed_setup):
        cluster, program, model = seed_setup
        cands = [p.distribution for p in spectrum(cluster, program, 2)]
        singles = [model.predict(d) for d in cands]
        vector = model.predict(cands, batch=True)
        # A single prediction is a batch of one: bit-identical.
        assert vector.tolist() == singles

    def test_report_total_matches_scalar(self, seed_setup):
        cluster, program, model = seed_setup
        d = block(cluster, program.n_rows)
        report = model.predict(d, report=True)
        assert report.total_seconds == pytest.approx(
            model.predict(d), rel=1e-12
        )

    def test_batch_report_combination_rejected(self, seed_setup):
        cluster, program, model = seed_setup
        d = block(cluster, program.n_rows)
        with pytest.raises(repro.ModelError):
            model.predict([d], batch=True, report=True)

    @pytest.mark.parametrize("config_name", ["HY1", "DC"])
    @pytest.mark.parametrize("app", [JacobiApp, ConjugateGradientApp])
    def test_grid_old_equals_new(self, app, config_name):
        """The one-candidate path and the batched pass agree."""
        cluster = configs.table1_configs()[config_name]
        program = app.paper(SCALE).structure
        model = build_model(cluster, program)
        cands = [p.distribution for p in spectrum(cluster, program, 1)]
        batch = model.predict(cands, batch=True)
        for d, got in zip(cands, batch):
            assert got == pytest.approx(model.predict(d), rel=1e-12)


class TestTelemetryContract:
    def test_phase_breakdown_sums_to_total(self, seed_setup):
        cluster, program, model = seed_setup
        rec = Recorder()
        report = model.predict(
            block(cluster, program.n_rows), report=True, telemetry=rec
        )
        keys = ("comp", "io_sync", "io_prefetch", "comm_overhead", "blocked")
        top = sum(rec.gauges[f"model/phase/{k}"] for k in keys)
        assert top == pytest.approx(report.total_seconds, abs=1e-9)
        n_nodes = len(cluster.nodes)
        for n in range(n_nodes):
            parts = sum(
                rec.gauges[f"model/phase/node{n}/{k}"] for k in keys
            )
            assert parts == pytest.approx(
                rec.gauges[f"model/phase/node{n}/total"], abs=1e-9
            )

    def test_prediction_and_cache_counters(self, seed_setup):
        cluster, program, model = seed_setup
        rec = Recorder()
        d = block(cluster, program.n_rows)
        model.predict(d, telemetry=rec)
        model.predict(d, telemetry=rec)
        assert rec.counters["model/predictions"] == 2
        assert not [
            name for name in rec.gauges
            if name.startswith("model/table_cache/")
        ]

    def test_disabled_telemetry_changes_nothing(self, seed_setup):
        """A disabled recorder records nothing, and single and batched
        ``predict``, a GBS search and ``emulate_many`` each answer bit
        for bit as ``telemetry=None`` does."""
        from repro.sim import emulate_many

        cluster, program, model = seed_setup
        cands = [p.distribution for p in spectrum(cluster, program, 2)]
        d = block(cluster, program.n_rows)
        off = Recorder(enabled=False)

        def search(telemetry):
            result = GeneralizedBinarySearch(model, cluster).search(
                budget=30, telemetry=telemetry
            )
            return result.best.counts, result.predicted_seconds, (
                result.evaluations, result.cache_hits, result.trajectory
            )

        def emulated(telemetry):
            runs = emulate_many(
                cluster, program, cands[:4], run_cache=False,
                telemetry=telemetry,
            )
            return [(r.total_seconds, r.per_node_seconds) for r in runs]

        assert model.predict(d, telemetry=off) == model.predict(
            d, telemetry=None
        )
        assert model.predict(cands, batch=True, telemetry=off).tolist() == (
            model.predict(cands, batch=True, telemetry=None).tolist()
        )
        assert search(off) == search(None)
        assert emulated(off) == emulated(None)
        assert not off.counters and not off.gauges and not off.series


class TestUniformSearcherSignatures:
    def test_constructors_accept_model_cluster_batch_size(self, seed_setup):
        cluster, program, model = seed_setup
        for cls in SEARCHERS:
            searcher = cls(model, cluster, batch_size=16)
            assert searcher.cluster is cluster
            assert searcher.batch_size == 16

    def test_search_signature_uniform(self):
        for cls in SEARCHERS:
            sig = inspect.signature(cls.search)
            params = list(sig.parameters)
            assert params[:2] == ["self", "budget"]
            for kw in ("start", "batch_size", "rng", "telemetry"):
                assert kw in sig.parameters, (cls.__name__, kw)
                assert (
                    sig.parameters[kw].kind
                    is inspect.Parameter.KEYWORD_ONLY
                )

    def test_search_records_telemetry(self, seed_setup):
        cluster, program, model = seed_setup
        rec = Recorder()
        result = GeneralizedBinarySearch(model, cluster).search(
            budget=30, telemetry=rec
        )
        assert rec.counters["search/runs"] == 1
        assert rec.counters["search/evaluations"] == result.evaluations
        assert rec.gauges["search/gbs/best_seconds"] == pytest.approx(
            result.predicted_seconds
        )
        assert any(k.startswith("span/search/") for k in rec.series)
