"""Tests for the paper's deferred features, implemented as extensions:
non-uniform iterations (§3.1) and non-dedicated environments (§3.2)."""

import numpy as np
import pytest

from repro.cluster import baseline_cluster, config_hy2
from repro.core import MhetaModel
from repro.distribution import block
from repro.exceptions import ProgramStructureError
from repro.experiments import dedicated_assumption_study
from repro.instrument import collect_inputs
from repro.instrument.collect import MeasurementConfig
from repro.program import ProgramBuilder
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.sim.perturbation import PerturbationModel
from repro.util.units import mib
from tests.conftest import make_jacobi_like

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()


class TestIterationProfileStructure:
    def test_profile_attached_and_validated(self):
        program = make_jacobi_like(iterations=3).with_iteration_profile(
            [1.0, 2.0, 0.5]
        )
        assert program.iteration_multiplier(1) == 2.0

    def test_wrong_length_raises(self):
        with pytest.raises(ProgramStructureError):
            make_jacobi_like(iterations=3).with_iteration_profile([1.0, 2.0])

    def test_nonpositive_raises(self):
        with pytest.raises(ProgramStructureError):
            make_jacobi_like(iterations=2).with_iteration_profile([1.0, 0.0])

    def test_uniform_default_multiplier(self):
        program = make_jacobi_like(iterations=3)
        assert program.iteration_multiplier(2) == 1.0

    def test_out_of_range_iteration_raises(self):
        program = make_jacobi_like(iterations=3).with_iteration_profile(
            [1.0, 1.0, 1.0]
        )
        with pytest.raises(ProgramStructureError):
            program.iteration_multiplier(3)

    def test_with_iterations_drops_profile(self):
        program = make_jacobi_like(iterations=3).with_iteration_profile(
            [1.0, 2.0, 0.5]
        )
        assert program.with_iterations(5).iteration_profile is None

    def test_builder_entry_point(self):
        program = (
            ProgramBuilder("p", n_rows=16, iterations=2)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"], work_per_row=1e-6)
            .iteration_profile([1.0, 3.0])
            .build()
        )
        assert program.iteration_multiplier(1) == 3.0


class TestNonUniformIterations:
    def _setup(self, profile):
        program = make_jacobi_like(
            n_rows=1024, cols=1024, iterations=len(profile)
        ).with_iteration_profile(profile)
        cluster = baseline_cluster().with_nodes(
            [n.with_(memory_bytes=mib(2)) for n in baseline_cluster().nodes]
        )
        return cluster, program

    def test_emulator_honours_profile(self):
        cluster, program = self._setup([1.0, 3.0, 1.0])
        res = ClusterEmulator(cluster, program, IDEAL).run(
            block(cluster, program.n_rows)
        )
        durations = res.iteration_durations(0)
        # Iteration 2 (3x compute) is strictly the longest.
        assert durations[1] > durations[0]
        assert durations[1] > durations[2]

    @pytest.mark.parametrize(
        "profile",
        [
            [1.0, 2.0, 0.5, 1.5],
            [3.0, 1.0, 1.0],  # instrumented iteration is the heavy one
            [0.25, 0.25, 4.0],
        ],
    )
    def test_model_exact_under_ideal_conditions(self, profile):
        cluster, program = self._setup(profile)
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
        )
        model = MhetaModel(program, cluster, inputs)
        actual = ClusterEmulator(cluster, program, IDEAL).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )

    def test_io_does_not_scale_with_profile(self):
        # Doubling compute must not double the run when I/O dominates.
        cluster, heavy = self._setup([2.0, 2.0])
        _, light = self._setup([1.0, 1.0])
        d = block(cluster, heavy.n_rows)
        t_heavy = ClusterEmulator(cluster, heavy, IDEAL).run(d).total_seconds
        t_light = ClusterEmulator(cluster, light, IDEAL).run(d).total_seconds
        assert t_heavy < 2 * t_light


class TestBackgroundLoad:
    def test_dedicated_factor_is_one(self):
        model = PerturbationModel(PerturbationConfig(background_load=0.0))
        assert model.background_factor() == 1.0

    def test_load_slows_compute(self):
        loaded = PerturbationModel(
            PerturbationConfig(background_load=0.3), run_labels=("t",)
        )
        factors = [loaded.background_factor() for _ in range(50)]
        assert np.mean(factors) > 1.2
        assert all(f >= 1.0 for f in factors)

    def test_load_is_bounded(self):
        extreme = PerturbationModel(
            PerturbationConfig(background_load=0.9, background_volatility=3.0),
            run_labels=("t",),
        )
        factors = [extreme.background_factor() for _ in range(200)]
        assert max(factors) <= 10.0 + 1e-9  # load clipped at 0.9

    def test_load_is_persistent(self):
        model = PerturbationModel(
            PerturbationConfig(background_load=0.3), run_labels=("t",)
        )
        series = np.array([model.background_factor() for _ in range(300)])
        # AR(1) persistence: adjacent samples correlate strongly.
        corr = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert corr > 0.5

    def test_emulated_run_slows_under_load(self, base_cluster, jacobi_like):
        d = block(base_cluster, jacobi_like.n_rows)
        dedicated = ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(d)
        loaded = ClusterEmulator(
            base_cluster,
            jacobi_like,
            PerturbationConfig.none().without(),  # keep other effects off
        )
        loaded_cfg = PerturbationConfig.none()
        import dataclasses

        loaded_cfg = dataclasses.replace(loaded_cfg, background_load=0.4)
        loaded = ClusterEmulator(base_cluster, jacobi_like, loaded_cfg).run(d)
        assert loaded.total_seconds > dedicated.total_seconds * 1.2


class TestRobustnessStudy:
    def test_small_scale_study(self):
        result = dedicated_assumption_study(
            scale=0.05, loads=(0.0, 0.3), steps_per_leg=1
        )
        assert result.mean_error[0.3] > result.mean_error[0.0]
        assert "background load" in result.describe()
