"""End-to-end integration tests: the reproduction's headline behaviours
at reduced scale.

The full-scale numbers live in the benchmarks (and EXPERIMENTS.md); these
tests check the same pipelines hold together at a scale that runs in
seconds.
"""

import pytest

from repro.cluster import config_dc, config_hy1, config_io, table1_configs
from repro.core import MhetaModel
from repro.distribution import block, spectrum
from repro.experiments import build_model, run_spectrum
from repro.instrument import collect_inputs
from repro.instrument.collect import MeasurementConfig
from repro.search import GeneralizedBinarySearch
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.apps import JacobiApp, application_by_name, paper_applications

SCALE = 0.05


class TestModelMirrorsEmulatorExactly:
    """With perturbations off, MHETA's equations are exact across every
    Table-1 configuration and every application — the strongest internal
    consistency check the reproduction has."""

    @pytest.mark.parametrize("config_name", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("app_name", ["jacobi", "cg", "lanczos", "rna"])
    def test_exact_agreement(self, config_name, app_name):
        cluster = table1_configs()[config_name]
        program = application_by_name(
            app_name, scale=SCALE
        ).structure.with_iterations(2)
        ideal = PerturbationConfig.none()
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=ideal,
            measurement=MeasurementConfig.perfect(),
        )
        model = MhetaModel(program, cluster, inputs)
        emulator = ClusterEmulator(cluster, program, ideal)
        for point in spectrum(cluster, program, steps_per_leg=1):
            actual = emulator.run(point.distribution).total_seconds
            predicted = model.predict(point.distribution)
            assert predicted == pytest.approx(actual, rel=1e-9), point.label


class TestAccuracyAtSmallScale:
    """With perturbations on, errors are small but non-zero — the same
    qualitative band the paper reports (average ~2%, max well under
    100%)."""

    @pytest.mark.parametrize("config_name", ["DC", "IO", "HY1"])
    def test_jacobi_accuracy_band(self, config_name):
        cluster = table1_configs()[config_name]
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(5)
        run = run_spectrum(cluster, program, steps_per_leg=2)
        assert run.mean_error_percent < 10.0
        assert run.max_error_percent < 30.0
        assert run.mean_error_percent > 0.0  # perturbations do act

    def test_blk_self_prediction_is_tight(self):
        """Predicting the instrumented distribution itself errs by at
        most ~1% (paper Section 5.2.1)."""
        cluster = config_io()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(5)
        model = build_model(cluster, program)
        d0 = block(cluster, program.n_rows)
        actual = ClusterEmulator(cluster, program).run(d0).total_seconds
        predicted = model.predict(d0)
        assert abs(predicted - actual) / actual < 0.03


class TestPrefetchingPipeline:
    def test_prefetch_predictions_track_prefetch_runs(self):
        cluster = config_io()
        program = JacobiApp.paper(scale=SCALE).prefetching().with_iterations(5)
        run = run_spectrum(cluster, program, steps_per_leg=2)
        assert run.mean_error_percent < 10.0


class TestSearchIntegration:
    def test_gbs_beats_blk_on_hy1(self):
        cluster = config_hy1()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(5)
        model = build_model(cluster, program)
        result = GeneralizedBinarySearch(model, cluster).search(budget=120)
        blk_pred = model.predict(block(cluster, program.n_rows))
        assert result.predicted_seconds <= blk_pred

    def test_search_winner_verified_by_emulator(self):
        """The distribution MHETA picks must actually run faster than
        Blk on the emulator — the whole point of the system."""
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(5)
        model = build_model(cluster, program)
        result = GeneralizedBinarySearch(model, cluster).search(budget=120)
        emulator = ClusterEmulator(cluster, program)
        t_best = emulator.run(result.best).total_seconds
        t_blk = emulator.run(block(cluster, program.n_rows)).total_seconds
        assert t_best < t_blk


class TestSpreadShape:
    def test_dc_prefers_balanced_for_all_apps(self):
        cluster = config_dc()
        for app in paper_applications(SCALE):
            program = app.structure.with_iterations(3)
            run = run_spectrum(cluster, program, steps_per_leg=2)
            assert run.best_actual.label == "Bal", app.name

    def test_rna_dc_spread_is_large(self):
        cluster = config_dc()
        program = application_by_name(
            "rna", scale=SCALE
        ).structure.with_iterations(3)
        run = run_spectrum(cluster, program, steps_per_leg=2)
        assert run.spread > 2.0
