"""Unit tests for repro.program (variables, stages, sections, builder)."""

import numpy as np
import pytest

from repro.exceptions import ProgramStructureError
from repro.program import (
    Access,
    CommPattern,
    CommSpec,
    ParallelSection,
    ProgramBuilder,
    Stage,
    Variable,
)
from tests.conftest import make_jacobi_like


class TestVariable:
    def test_distributed_row_bytes(self):
        v = Variable(name="a", cols=100, element_size=8)
        assert v.row_bytes == 800
        assert v.local_bytes(10) == 8000

    def test_replicated_local_bytes_ignores_rows(self):
        v = Variable(name="a", distributed=False, replicated_elements=1000)
        assert v.local_bytes(0) == v.local_bytes(999) == 8000

    def test_writes_back(self):
        ro = Variable(name="a", cols=1, access=Access.READ_ONLY)
        rw = Variable(name="b", cols=1, access=Access.READ_WRITE)
        assert not ro.writes_back
        assert rw.writes_back

    def test_empty_name_raises(self):
        with pytest.raises(ProgramStructureError):
            Variable(name="")

    def test_nonpositive_cols_raises(self):
        with pytest.raises(ProgramStructureError):
            Variable(name="a", cols=0)

    def test_fractional_cols_allowed(self):
        # Multigrid coarse levels use fractional cols.
        v = Variable(name="a", cols=0.25)
        assert v.row_bytes == 2.0


class TestStage:
    def test_touched_preserves_order_dedupes(self):
        s = Stage(name="s", reads=("a", "b"), writes=("b", "c"))
        assert s.touched == ("a", "b", "c")

    def test_work_seconds(self):
        s = Stage(name="s", work_per_row=2.0, fixed_work=1.0)
        assert s.work_seconds(3) == pytest.approx(7.0)  # owns everything
        assert s.work_seconds(3, total_rows=6) == pytest.approx(6.5)

    def test_negative_work_raises(self):
        with pytest.raises(ProgramStructureError):
            Stage(name="s", work_per_row=-1.0)


class TestCommSpec:
    def test_none_with_message_raises(self):
        with pytest.raises(ProgramStructureError):
            CommSpec(pattern=CommPattern.NONE, message_bytes=8)

    def test_negative_bytes_raise(self):
        with pytest.raises(ProgramStructureError):
            CommSpec(pattern=CommPattern.REDUCTION, message_bytes=-1)


class TestParallelSection:
    def _stage(self):
        return Stage(name="s", reads=("a",))

    def test_pipeline_needs_tiles(self):
        with pytest.raises(ProgramStructureError):
            ParallelSection(
                name="p",
                stages=(self._stage(),),
                tiles=1,
                comm=CommSpec(pattern=CommPattern.PIPELINE, message_bytes=8),
            )

    def test_tiles_without_pipeline_raise(self):
        with pytest.raises(ProgramStructureError):
            ParallelSection(
                name="p",
                stages=(self._stage(),),
                tiles=4,
                comm=CommSpec(pattern=CommPattern.REDUCTION, message_bytes=8),
            )

    def test_empty_stages_raise(self):
        with pytest.raises(ProgramStructureError):
            ParallelSection(name="p", stages=())

    def test_duplicate_stage_names_raise(self):
        with pytest.raises(ProgramStructureError):
            ParallelSection(
                name="p", stages=(self._stage(), self._stage())
            )

    def test_touched_includes_comm_source(self):
        sec = ParallelSection(
            name="p",
            stages=(self._stage(),),
            comm=CommSpec(
                pattern=CommPattern.NEAREST_NEIGHBOR,
                message_bytes=8,
                source_variable="ghost",
            ),
        )
        assert "ghost" in sec.touched


class TestProgramBuilder:
    def test_full_build(self, jacobi_like):
        assert jacobi_like.n_rows == 512
        assert len(jacobi_like.sections) == 2
        assert jacobi_like.sections[0].comm.pattern is (
            CommPattern.NEAREST_NEIGHBOR
        )
        assert jacobi_like.sections[1].comm.pattern is CommPattern.REDUCTION

    def test_unknown_variable_raises(self):
        builder = (
            ProgramBuilder("p", n_rows=10, iterations=1)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["missing"])
        )
        with pytest.raises(ProgramStructureError):
            builder.build()

    def test_stage_before_section_raises(self):
        with pytest.raises(ProgramStructureError):
            ProgramBuilder("p", n_rows=10).stage("s")

    def test_unclosed_section_gets_no_comm(self):
        program = (
            ProgramBuilder("p", n_rows=10)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"])
            .build()
        )
        assert program.sections[0].comm.pattern is CommPattern.NONE

    def test_prefetch_flag(self):
        program = (
            ProgramBuilder("p", n_rows=10)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"])
            .prefetching()
            .build()
        )
        assert program.prefetch


class TestProgramStructure:
    def test_dataset_bytes(self, cg_like):
        a = cg_like.variable("A")
        q = cg_like.variable("q")
        expected = (
            a.local_bytes(cg_like.n_rows)
            + q.local_bytes(cg_like.n_rows)
            + cg_like.variable("p_full").local_bytes(0)
        )
        assert cg_like.dataset_bytes == int(expected)

    def test_replicated_bytes(self, cg_like):
        assert cg_like.replicated_bytes == cg_like.n_rows * 8

    def test_distributed_row_bytes(self, cg_like):
        assert cg_like.distributed_row_bytes() == pytest.approx(16 * 12 + 8)

    def test_variable_map_is_built_once(self, jacobi_like):
        first = jacobi_like.variable_map
        assert first is jacobi_like.variable_map
        assert first == {v.name: v for v in jacobi_like.variables}

    def test_variable_map_cache_leaves_content_keys_alone(self):
        from repro.cluster import config_dc
        from repro.distribution import block
        from repro.parallel.cache import RunCache, content_key
        from repro.sim import PerturbationConfig

        untouched, touched = make_jacobi_like(), make_jacobi_like()
        touched.variable_map  # fills the cache on this instance only
        assert "variable_map" in vars(touched)
        assert "variable_map" not in vars(untouched)
        assert touched == untouched
        assert content_key(touched) == content_key(untouched)
        cluster = config_dc()
        d = block(cluster, touched.n_rows)
        pert = PerturbationConfig()
        assert RunCache.key(cluster, touched, d, 3, pert) == RunCache.key(
            cluster, untouched, d, 3, pert
        )

    def test_variable_lookup_raises_on_unknown(self, jacobi_like):
        with pytest.raises(ProgramStructureError):
            jacobi_like.variable("nope")

    def test_row_weights_normalised(self):
        program = (
            ProgramBuilder("p", n_rows=4)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"], work_per_row=1.0)
            .weights(np.array([1.0, 2.0, 3.0, 2.0]))
            .build()
        )
        assert program.row_weights.mean() == pytest.approx(1.0)
        assert program.weight_of_rows(0, 4) == pytest.approx(4.0)

    def test_row_weights_wrong_shape_raises(self):
        builder = (
            ProgramBuilder("p", n_rows=4)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"])
            .weights(np.ones(3))
        )
        with pytest.raises(ProgramStructureError):
            builder.build()

    def test_row_weights_nonpositive_raise(self):
        builder = (
            ProgramBuilder("p", n_rows=3)
            .distributed("a", cols=1)
            .section("s")
            .stage("st", reads=["a"])
            .weights(np.array([1.0, 0.0, 1.0]))
        )
        with pytest.raises(ProgramStructureError):
            builder.build()

    def test_weight_of_rows_uniform_default(self, jacobi_like):
        assert jacobi_like.weight_of_rows(0, 100) == 100.0

    def test_weight_of_rows_bounds_checked(self, jacobi_like):
        with pytest.raises(ProgramStructureError):
            jacobi_like.weight_of_rows(-1, 5)
        with pytest.raises(ProgramStructureError):
            jacobi_like.weight_of_rows(0, jacobi_like.n_rows + 1)

    def test_with_prefetch_copy(self, jacobi_like):
        pf = jacobi_like.with_prefetch()
        assert pf.prefetch and not jacobi_like.prefetch

    def test_with_iterations_copy(self, jacobi_like):
        assert jacobi_like.with_iterations(7).iterations == 7

    def test_duplicate_variable_names_raise(self):
        builder = (
            ProgramBuilder("p", n_rows=4)
            .distributed("a", cols=1)
            .distributed("a", cols=2)
            .section("s")
            .stage("st", reads=["a"])
        )
        with pytest.raises(ProgramStructureError):
            builder.build()
