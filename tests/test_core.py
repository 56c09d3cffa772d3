"""Unit tests for the MHETA core: oracle, equations, timelines, model."""

import pytest

from repro.core import MhetaModel, equations
from repro.core.comm import SectionTimeline, nearest_neighbor_wait, pipeline_waits
from repro.core.io_model import prefetch_io_seconds, sync_io_seconds
from repro.core.oracle import OutOfCoreOracle
from repro.distribution import GenBlock, block, balanced
from repro.exceptions import ModelError
from repro.instrument import collect_inputs, run_microbenchmarks
from repro.instrument.collect import MeasurementConfig
from repro.program.sections import CommPattern
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.util.units import mib
from tests.conftest import make_cg_like, make_jacobi_like, make_pipeline_like

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()


def ideal_model(cluster, program):
    d0 = block(cluster, program.n_rows)
    inputs = collect_inputs(
        cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
    )
    return MhetaModel(program, cluster, inputs)


class TestEquation1:
    def test_basic_form(self):
        # 3 passes of (seek 0.01 + read 0.5 + wseek 0.02 + write 1.0)
        assert sync_io_seconds(3, 0.01, 0.5, 0.02, 1.0) == pytest.approx(4.59)

    def test_in_core_is_zero(self):
        assert sync_io_seconds(0, 0.01, 0.5) == 0.0

    def test_read_only_drops_write_terms(self):
        assert sync_io_seconds(2, 0.01, 0.5) == pytest.approx(1.02)

    def test_negative_nio_raises(self):
        with pytest.raises(ModelError):
            sync_io_seconds(-1, 0.01, 0.5)

    def test_equations_module_alias(self):
        assert equations.equation_1(2, 0.01, 0.5) == sync_io_seconds(
            2, 0.01, 0.5
        )


class TestEquation2:
    def test_reduces_to_equation_1_without_overlap(self):
        for n_io in (1, 2, 5):
            assert prefetch_io_seconds(
                n_io, 0.01, 0.5, overlap_seconds=0.0, write_seek=0.02,
                write_icla_seconds=0.3,
            ) == pytest.approx(
                sync_io_seconds(n_io, 0.01, 0.5, 0.02, 0.3)
            )

    def test_full_overlap_masks_latency(self):
        # To >= R: effective latency zero; only first read pays R.
        total = prefetch_io_seconds(4, 0.01, 0.5, overlap_seconds=0.9)
        expected = 4 * (0.01 + 0.9) + 0.5
        assert total == pytest.approx(expected)

    def test_partial_overlap(self):
        total = prefetch_io_seconds(2, 0.0, 1.0, overlap_seconds=0.4)
        # N*(To) + R + (N-1)*(R - To) = 0.8 + 1.0 + 0.6
        assert total == pytest.approx(2.4)

    def test_overlap_charged_even_when_useless(self):
        # Prefetching can be more expensive than synchronous reads.
        sync = sync_io_seconds(4, 0.01, 0.001)
        prefetch = prefetch_io_seconds(4, 0.01, 0.001, overlap_seconds=0.5)
        assert prefetch > sync

    def test_zero_passes(self):
        assert prefetch_io_seconds(0, 0.01, 0.5, 0.2) == 0.0


class TestEquation3:
    def test_no_wait_when_message_early(self):
        assert nearest_neighbor_wait(10.0, 1.0, 0.5) == 0.0

    def test_wait_when_message_late(self):
        assert nearest_neighbor_wait(1.0, 10.0, 0.5) == pytest.approx(9.5)

    def test_symmetry_of_equation(self):
        # Equation 3 is symmetric in the two nodes' roles.
        w01 = equations.equation_3(5.0, 0.1, 7.0, 0.1, 0.2)
        w10 = equations.equation_3(7.0, 0.1, 5.0, 0.1, 0.2)
        assert w01 == pytest.approx(2.2)
        assert w10 == 0.0

    def test_equation_5_composition(self):
        assert equations.equation_5(0.1, 2.0, 0.2) == pytest.approx(2.3)


class TestEquation4:
    def test_fast_sender_never_blocks_receiver(self):
        waits = pipeline_waits([0.1] * 4, [1.0] * 4, 0.01, 0.01, 0.05)
        # After the first tile's fill, the sender is always ahead.
        assert waits[0] > 0
        assert all(w == 0.0 for w in waits[1:])

    def test_slow_sender_blocks_every_tile(self):
        waits = pipeline_waits([1.0] * 4, [0.1] * 4, 0.01, 0.01, 0.05)
        assert all(w > 0 for w in waits)

    def test_mismatched_tiles_raise(self):
        with pytest.raises(ModelError):
            pipeline_waits([1.0], [1.0, 2.0], 0.0, 0.0, 0.0)

    def test_waits_match_timeline_two_nodes(self, two_node_cluster):
        micro = run_microbenchmarks(two_node_cluster)
        timeline = SectionTimeline(micro, 2)
        sender = [0.3, 0.2, 0.4]
        receiver = [0.1, 0.5, 0.2]
        ends = timeline.advance(
            CommPattern.PIPELINE,
            [0.0, 0.0],
            [sender, receiver],
            1000.0,
            [0.0, 0.0],
        )
        waits = pipeline_waits(
            sender,
            receiver,
            micro.send_overhead,
            micro.recv_overhead,
            micro.transfer_seconds(1000.0),
        )
        expected_end = sum(waits) + 3 * micro.recv_overhead + sum(receiver)
        assert ends[1] == pytest.approx(expected_end)


class TestSectionTimeline:
    @pytest.fixture
    def timeline(self, base_cluster):
        micro = run_microbenchmarks(base_cluster)
        return SectionTimeline(micro, base_cluster.n_nodes), micro

    def test_none_pattern_adds_stage_times(self, timeline):
        tl, _ = timeline
        ends = tl.advance(
            CommPattern.NONE, [1.0] * 8, [[2.0]] * 8, 0.0, [0.0] * 8
        )
        assert ends == [3.0] * 8

    def test_reduction_synchronises(self, timeline):
        tl, _ = timeline
        starts = [float(i) for i in range(8)]
        ends = tl.advance(
            CommPattern.REDUCTION, starts, [[1.0]] * 8, 8.0, [0.0] * 8
        )
        # Everyone ends within one broadcast depth, after the slowest.
        assert max(ends) - min(ends) < 1e-3
        assert min(ends) > max(starts) + 1.0

    def test_nearest_neighbor_wait_appears(self, timeline):
        tl, micro = timeline
        stage_times = [[10.0]] + [[1.0]] * 7
        ends = tl.advance(
            CommPattern.NEAREST_NEIGHBOR,
            [0.0] * 8,
            stage_times,
            100.0,
            [0.0] * 8,
        )
        # Node 1 must wait for node 0's late message.
        assert ends[1] > 10.0

    def test_source_read_delays_message(self, timeline):
        tl, _ = timeline
        no_read = tl.advance(
            CommPattern.NEAREST_NEIGHBOR,
            [0.0] * 8,
            [[1.0]] * 8,
            100.0,
            [0.0] * 8,
        )
        with_read = tl.advance(
            CommPattern.NEAREST_NEIGHBOR,
            [0.0] * 8,
            [[1.0]] * 8,
            100.0,
            [0.5] * 8,
        )
        assert all(w > n for w, n in zip(with_read, no_read))

    def test_allgather_scales_with_bytes(self, timeline):
        tl, _ = timeline
        small = tl.advance(
            CommPattern.ALLGATHER, [0.0] * 8, [[1.0]] * 8, 100.0, [0.0] * 8
        )
        large = tl.advance(
            CommPattern.ALLGATHER, [0.0] * 8, [[1.0]] * 8, 1e6, [0.0] * 8
        )
        assert all(lg > sm for lg, sm in zip(large, small))

    def test_single_node_shortcut(self, base_cluster):
        micro = run_microbenchmarks(base_cluster)
        tl = SectionTimeline(micro, 1)
        ends = tl.advance(
            CommPattern.REDUCTION, [1.0], [[2.0]], 8.0, [0.0]
        )
        assert ends == [3.0]

    def test_wrong_length_raises(self, timeline):
        tl, _ = timeline
        with pytest.raises(ModelError):
            tl.advance(CommPattern.NONE, [0.0], [[1.0]] * 8, 0.0, [0.0] * 8)


class TestOracle:
    def test_plan_caching(self, base_cluster, jacobi_like):
        oracle = OutOfCoreOracle(
            jacobi_like, [n.memory_bytes for n in base_cluster.nodes]
        )
        a = oracle.plan(0, 100)
        b = oracle.plan(0, 100)
        assert a is b

    def test_is_out_of_core(self, base_cluster, jacobi_like):
        oracle = OutOfCoreOracle(jacobi_like, [mib(1)] * 8)
        assert oracle.is_out_of_core(0, jacobi_like.n_rows, "grid")
        assert not oracle.is_out_of_core(0, 8, "grid")

    def test_unknown_variable_raises(self, base_cluster, jacobi_like):
        oracle = OutOfCoreOracle(jacobi_like, [mib(1)] * 8)
        with pytest.raises(ModelError):
            oracle.is_out_of_core(0, 10, "nope")

    def test_bad_node_raises(self, jacobi_like):
        oracle = OutOfCoreOracle(jacobi_like, [mib(1)])
        with pytest.raises(ModelError):
            oracle.plan(5, 10)


class TestMhetaModelExactness:
    """With every perturbation off and perfect timers, MHETA must agree
    with the emulator to float precision — the equations are exact
    mirrors of the runtime."""

    def check(self, cluster, program, distributions):
        emulator = ClusterEmulator(cluster, program, IDEAL)
        model = ideal_model(cluster, program)
        for d in distributions:
            actual = emulator.run(d).total_seconds
            predicted = model.predict(d)
            assert predicted == pytest.approx(actual, rel=1e-9), d

    def test_jacobi_in_core(self, base_cluster, jacobi_like):
        self.check(
            base_cluster,
            jacobi_like,
            [block(base_cluster, jacobi_like.n_rows)],
        )

    def test_jacobi_out_of_core(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=3)
        cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(2)) for n in base_cluster.nodes]
        )
        self.check(
            cluster,
            program,
            [
                block(cluster, program.n_rows),
                GenBlock([512, 256, 256, 256, 256, 256, 128, 128]),
            ],
        )

    def test_jacobi_heterogeneous(self, hetero_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=3)
        self.check(
            hetero_cluster,
            program,
            [
                block(hetero_cluster, program.n_rows),
                balanced(hetero_cluster, program.n_rows),
            ],
        )

    def test_pipeline_program(self, hetero_cluster, pipeline_like):
        self.check(
            hetero_cluster,
            pipeline_like,
            [block(hetero_cluster, pipeline_like.n_rows)],
        )

    def test_cg_program(self, hetero_cluster, cg_like):
        self.check(
            hetero_cluster,
            cg_like,
            [
                block(hetero_cluster, cg_like.n_rows),
                balanced(hetero_cluster, cg_like.n_rows),
            ],
        )

    def test_prefetch_program(self, base_cluster):
        program = make_jacobi_like(
            n_rows=2048, cols=2048, iterations=3
        ).with_prefetch()
        cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(2)) for n in base_cluster.nodes]
        )
        self.check(cluster, program, [block(cluster, program.n_rows)])


class TestMhetaModelApi:
    def test_predict_report_fields(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        report = model.predict(block(base_cluster, jacobi_like.n_rows), report=True)
        assert report.total_seconds > 0
        assert report.iterations == jacobi_like.iterations
        assert len(report.nodes) == 8
        assert 0 <= report.bottleneck_node < 8

    def test_report_totals_consistent(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        d = block(base_cluster, jacobi_like.n_rows)
        report = model.predict(d, report=True)
        assert report.total_seconds == pytest.approx(model.predict(d))

    def test_report_breakdown_sums_to_iteration(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        report = model.predict(block(base_cluster, jacobi_like.n_rows), report=True)
        for node in report.nodes:
            parts = sum(s.total for s in node.sections)
            assert parts == pytest.approx(node.iteration_seconds, rel=1e-6)

    def test_describe_renders(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        report = model.predict(block(base_cluster, jacobi_like.n_rows), report=True)
        text = report.describe()
        assert "bottleneck" in text
        assert "node" in text

    def test_component_totals(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        totals = model.predict(
            block(base_cluster, jacobi_like.n_rows), report=True
        ).component_totals()
        assert set(totals) == {"compute", "io", "comm"}
        assert totals["compute"] > 0

    def test_iterations_override(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        d = block(base_cluster, jacobi_like.n_rows)
        t1 = model.predict(d, iterations=1)
        t10 = model.predict(d, iterations=10)
        assert t10 > 5 * t1

    def test_wrong_distribution_raises(self, base_cluster, jacobi_like):
        model = ideal_model(base_cluster, jacobi_like)
        with pytest.raises(ModelError):
            model.predict(GenBlock([jacobi_like.n_rows]))
        with pytest.raises(ModelError):
            model.predict(block(base_cluster, jacobi_like.n_rows + 8))

    def test_mismatched_program_raises(self, base_cluster, jacobi_like, cg_like):
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL
        )
        with pytest.raises(ModelError):
            MhetaModel(cg_like, base_cluster, inputs)

    def test_memory_list_constructor(self, base_cluster, jacobi_like):
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL
        )
        model = MhetaModel(
            jacobi_like,
            [n.memory_bytes for n in base_cluster.nodes],
            inputs,
        )
        assert model.n_nodes == 8
