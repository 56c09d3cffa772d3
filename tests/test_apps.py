"""Tests for the application structural models."""

import numpy as np
import pytest

from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
    application_by_name,
    paper_applications,
)
from repro.apps.cg import sparse_row_weights
from repro.program.sections import CommPattern
from repro.program.variables import Access


class TestPaperSuite:
    def test_four_applications(self):
        apps = paper_applications()
        assert [a.name for a in apps] == ["jacobi", "cg", "lanczos", "rna"]

    def test_paper_iteration_counts(self):
        apps = {a.name: a for a in paper_applications()}
        assert apps["jacobi"].structure.iterations == 100
        assert apps["cg"].structure.iterations == 10
        assert apps["lanczos"].structure.iterations == 5
        assert apps["rna"].structure.iterations == 10

    def test_lookup_by_name(self):
        assert application_by_name("Jacobi").name == "jacobi"
        assert application_by_name("multigrid").name == "multigrid"
        with pytest.raises(KeyError):
            application_by_name("fft")

    def test_scaling_shrinks_dataset(self):
        full = JacobiApp.paper()
        small = JacobiApp.paper(scale=0.25)
        assert small.dataset_bytes < full.dataset_bytes / 2

    def test_structures_cached(self):
        app = JacobiApp.paper()
        assert app.structure is app.structure

    def test_repr_mentions_size(self):
        assert "n_rows" in repr(JacobiApp.paper())


class TestJacobi:
    def test_structure_shape(self):
        s = JacobiApp.paper().structure
        assert len(s.sections) == 2
        sweep, residual = s.sections
        assert sweep.comm.pattern is CommPattern.NEAREST_NEIGHBOR
        assert residual.comm.pattern is CommPattern.REDUCTION

    def test_grid_is_read_write(self):
        s = JacobiApp.paper().structure
        assert s.variable("grid").access is Access.READ_WRITE

    def test_boundary_message_is_one_row(self):
        app = JacobiApp.paper()
        s = app.structure
        assert s.sections[0].comm.message_bytes == app.config.cols * 8

    def test_prefetching_variant(self):
        app = JacobiApp.paper()
        assert app.prefetching().prefetch
        assert not app.structure.prefetch


class TestCg:
    def test_matrix_read_only_and_sparse_sized(self):
        s = ConjugateGradientApp.paper().structure
        a = s.variable("A")
        assert a.access is Access.READ_ONLY
        assert a.element_size == 12  # value + column index

    def test_has_allgather_and_two_reductions(self):
        s = ConjugateGradientApp.paper().structure
        patterns = [sec.comm.pattern for sec in s.sections]
        assert patterns.count(CommPattern.ALLGATHER) == 1
        assert patterns.count(CommPattern.REDUCTION) == 2

    def test_row_weights_present_and_skewed(self):
        s = ConjugateGradientApp.paper().structure
        assert s.row_weights is not None
        assert s.row_weights.std() > 0.01

    def test_row_weights_block_imbalance(self):
        # Contiguous eighths must differ by a few percent — the effect
        # that defeats MHETA's row-count scaling (paper Section 5.4).
        s = ConjugateGradientApp.paper().structure
        blocks = np.array_split(s.row_weights, 8)
        means = [b.mean() for b in blocks]
        assert max(means) / min(means) > 1.02

    def test_weights_deterministic(self):
        a = sparse_row_weights(1000)
        b = sparse_row_weights(1000)
        assert np.array_equal(a, b)

    def test_scale_keeps_nnz_per_row(self):
        small = ConjugateGradientApp.paper(scale=0.1)
        full = ConjugateGradientApp.paper()
        assert small.config.cols == full.config.cols
        assert small.config.n_rows < full.config.n_rows


class TestLanczos:
    def test_matrix_read_only(self):
        s = LanczosApp.paper().structure
        assert s.variable("A").access is Access.READ_ONLY

    def test_square_matrix(self):
        app = LanczosApp.paper()
        assert app.config.n_rows == app.config.cols

    def test_replicated_vectors(self):
        s = LanczosApp.paper().structure
        names = {v.name for v in s.replicated_variables}
        assert "v_full" in names and "v_prev" in names


class TestRna:
    def test_single_pipelined_section(self):
        s = RnaPipelineApp.paper().structure
        assert len(s.sections) == 1
        section = s.sections[0]
        assert section.comm.pattern is CommPattern.PIPELINE
        assert section.tiles > 1

    def test_tile_message_size(self):
        app = RnaPipelineApp.paper()
        section = app.structure.sections[0]
        assert section.comm.message_bytes == pytest.approx(
            app.config.cols / section.tiles * 8
        )

    def test_tiny_scale_keeps_valid_tiles(self):
        app = RnaPipelineApp.paper(scale=0.001)
        assert app.structure.sections[0].tiles >= 2


class TestMultigrid:
    def test_levels_give_many_sections(self):
        s = MultigridApp.paper().structure
        # down: 2 per level transition; coarse solve; up: 2 per level.
        expected = 2 * 3 + 1 + 2 * 3
        assert len(s.sections) == expected

    def test_coarser_levels_smaller(self):
        s = MultigridApp.paper().structure
        cols = [s.variable(f"grid{i}").cols for i in range(4)]
        assert cols == sorted(cols, reverse=True)
        assert cols[1] == pytest.approx(cols[0] / 4)

    def test_hierarchy_adds_about_a_third(self):
        s = MultigridApp.paper().structure
        finest = s.variable("grid0").local_bytes(s.n_rows)
        assert s.dataset_bytes < finest * 1.5

    def test_has_convergence_reduction(self):
        s = MultigridApp.paper().structure
        assert any(
            sec.comm.pattern is CommPattern.REDUCTION for sec in s.sections
        )

    def test_runs_under_model_and_emulator(self, base_cluster):
        from repro.distribution import block
        from repro.experiments import build_model
        from repro.sim import ClusterEmulator, PerturbationConfig
        from repro.instrument.collect import MeasurementConfig, collect_inputs
        from repro.core import MhetaModel

        program = MultigridApp.paper(scale=0.01).structure.with_iterations(2)
        ideal = PerturbationConfig.none()
        d0 = block(base_cluster, program.n_rows)
        inputs = collect_inputs(
            base_cluster, program, d0, perturbation=ideal,
            measurement=MeasurementConfig.perfect(),
        )
        model = MhetaModel(program, base_cluster, inputs)
        actual = ClusterEmulator(base_cluster, program, ideal).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )
