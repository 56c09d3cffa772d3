"""Integration-level tests of the cluster emulator."""

import pytest

from repro.distribution import GenBlock, block
from repro.exceptions import SimulationError
from repro.sim import ClusterEmulator, PerturbationConfig, emulate, emulate_many
from repro.sim.trace import Op, TraceCollector
from repro.util.units import mib
from tests.conftest import make_cg_like, make_jacobi_like, make_pipeline_like

IDEAL = PerturbationConfig.none()


class TestBasicExecution:
    def test_total_positive_and_iterations_recorded(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        res = em.run(block(base_cluster, jacobi_like.n_rows))
        assert res.total_seconds > 0
        assert len(res.iteration_ends[0]) == jacobi_like.iterations

    def test_iteration_durations_sum_to_node_total(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        res = em.run(block(base_cluster, jacobi_like.n_rows))
        for node in range(base_cluster.n_nodes):
            assert sum(res.iteration_durations(node)) == pytest.approx(
                res.per_node_seconds[node]
            )

    def test_deterministic_with_fixed_seeds(self, base_cluster, jacobi_like):
        d = block(base_cluster, jacobi_like.n_rows)
        a = ClusterEmulator(base_cluster, jacobi_like).run(d).total_seconds
        b = ClusterEmulator(base_cluster, jacobi_like).run(d).total_seconds
        assert a == b

    def test_more_work_takes_longer(self, base_cluster):
        small = make_jacobi_like(n_rows=256, iterations=2)
        large = make_jacobi_like(n_rows=1024, iterations=2)
        d_small = block(base_cluster, 256)
        d_large = block(base_cluster, 1024)
        t_small = ClusterEmulator(base_cluster, small, IDEAL).run(d_small)
        t_large = ClusterEmulator(base_cluster, large, IDEAL).run(d_large)
        assert t_large.total_seconds > t_small.total_seconds

    def test_slow_cpu_slows_run(self, base_cluster, jacobi_like):
        slow = base_cluster.replace_node(
            0, base_cluster[0].with_(cpu_power=0.25)
        )
        d = block(base_cluster, jacobi_like.n_rows)
        t_base = ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(d)
        t_slow = ClusterEmulator(slow, jacobi_like, IDEAL).run(d)
        assert t_slow.total_seconds > t_base.total_seconds

    def test_iterations_override(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        d = block(base_cluster, jacobi_like.n_rows)
        one = em.run(d, iterations=1)
        assert len(one.iteration_ends[0]) == 1


class TestValidation:
    def test_wrong_node_count_raises(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        with pytest.raises(SimulationError):
            em.run(GenBlock([jacobi_like.n_rows]))

    def test_wrong_row_total_raises(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        with pytest.raises(SimulationError):
            em.run(block(base_cluster, jacobi_like.n_rows + 1))


    @pytest.mark.parametrize("iterations", [0, -3])
    def test_nonpositive_iterations_raise(
        self, base_cluster, jacobi_like, iterations
    ):
        d = block(base_cluster, jacobi_like.n_rows)
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        calls = [
            lambda: em.run(d, iterations=iterations),
            lambda: emulate(base_cluster, jacobi_like, d, iterations=iterations),
            lambda: emulate_many(
                base_cluster, jacobi_like, [d], iterations=iterations
            ),
        ]
        for call in calls:
            with pytest.raises(SimulationError, match="iterations must be >= 1"):
                call()


class TestOutOfCoreExecution:
    def _small_memory(self, cluster, megs=2):
        return cluster.with_nodes(
            [n.with_(memory_bytes=mib(megs)) for n in cluster.nodes],
            name="small",
        )

    def test_ooc_produces_reads_and_writes(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=2)
        cluster = self._small_memory(base_cluster)
        trace = TraceCollector()
        ClusterEmulator(cluster, program, IDEAL).run(
            block(cluster, program.n_rows), observer=trace
        )
        assert trace.of_kind(Op.READ)
        assert trace.of_kind(Op.WRITE)  # grid is read-write

    def test_in_core_produces_no_io(self, base_cluster, jacobi_like):
        trace = TraceCollector()
        ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(
            block(base_cluster, jacobi_like.n_rows), observer=trace
        )
        assert not trace.of_kind(Op.READ)
        assert not trace.of_kind(Op.WRITE)

    def test_read_only_variable_never_written(self, base_cluster, cg_like):
        cluster = self._small_memory(base_cluster, megs=1)
        trace = TraceCollector()
        ClusterEmulator(cluster, cg_like, IDEAL).run(
            block(cluster, cg_like.n_rows), observer=trace
        )
        writes_a = [r for r in trace.of_kind(Op.WRITE) if r.variable == "A"]
        assert not writes_a

    def test_ooc_slower_than_in_core(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=2)
        d = block(base_cluster, program.n_rows)
        fast = ClusterEmulator(base_cluster, program, IDEAL).run(d)
        slow = ClusterEmulator(
            self._small_memory(base_cluster), program, IDEAL
        ).run(d)
        assert slow.total_seconds > fast.total_seconds

    def test_io_bytes_cover_whole_local_array(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=2)
        cluster = self._small_memory(base_cluster)
        trace = TraceCollector()
        ClusterEmulator(cluster, program, IDEAL).run(
            block(cluster, program.n_rows), observer=trace
        )
        grid = program.variable("grid")
        rows0 = program.n_rows // 8
        expected = rows0 * grid.row_bytes  # per stage pass
        node0_sweep_reads = sum(
            r.nbytes
            for r in trace.of_kind(Op.READ)
            if r.node == 0
            and r.variable == "grid"
            and r.iteration == 0
            and r.section == "sweep"
            and r.stage is not None
        )
        assert node0_sweep_reads == pytest.approx(expected)


class TestPrefetchExecution:
    def test_prefetch_not_slower(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=2)
        cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(1)) for n in base_cluster.nodes]
        )
        d = block(cluster, program.n_rows)
        sync = ClusterEmulator(cluster, program, IDEAL).run(d)
        pf = ClusterEmulator(cluster, program.with_prefetch(), IDEAL).run(d)
        assert pf.total_seconds <= sync.total_seconds * 1.001

    def test_prefetch_emits_issue_and_wait(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=1)
        cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(1)) for n in base_cluster.nodes]
        )
        trace = TraceCollector()
        ClusterEmulator(cluster, program.with_prefetch(), IDEAL).run(
            block(cluster, program.n_rows), observer=trace
        )
        assert trace.of_kind(Op.PREFETCH_ISSUE)
        assert trace.of_kind(Op.PREFETCH_WAIT)

    def test_instrumented_run_forces_blocking(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=1)
        trace = TraceCollector()
        ClusterEmulator(base_cluster, program.with_prefetch(), IDEAL).run(
            block(base_cluster, program.n_rows),
            observer=trace,
            io_mode="instrumented",
            iterations=1,
        )
        assert not trace.of_kind(Op.PREFETCH_ISSUE)
        assert trace.of_kind(Op.READ)  # forced out of core


class TestCommunicationPatterns:
    def test_nearest_neighbor_counts(self, base_cluster, jacobi_like):
        trace = TraceCollector()
        ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(
            block(base_cluster, jacobi_like.n_rows),
            observer=trace,
            iterations=1,
        )
        sweep_sends = [
            r for r in trace.of_kind(Op.SEND) if r.section == "sweep"
        ]
        # Edge nodes send 1, middle nodes 2: 2*1 + 6*2 = 14.
        assert len(sweep_sends) == 14

    def test_pipeline_messages_per_tile(self, base_cluster, pipeline_like):
        trace = TraceCollector()
        ClusterEmulator(base_cluster, pipeline_like, IDEAL).run(
            block(base_cluster, pipeline_like.n_rows),
            observer=trace,
            iterations=1,
        )
        sends = trace.of_kind(Op.SEND)
        # 7 sending nodes x 4 tiles.
        assert len(sends) == 28

    def test_pipeline_downstream_finishes_later(self, base_cluster, pipeline_like):
        em = ClusterEmulator(base_cluster, pipeline_like, IDEAL)
        res = em.run(block(base_cluster, pipeline_like.n_rows))
        assert res.per_node_seconds[-1] >= res.per_node_seconds[0]

    def test_reduction_synchronises_iteration_times(self, base_cluster, jacobi_like):
        em = ClusterEmulator(base_cluster, jacobi_like, IDEAL)
        res = em.run(block(base_cluster, jacobi_like.n_rows))
        # All nodes finish each iteration within one broadcast depth.
        ends = [res.iteration_ends[n][0] for n in range(8)]
        assert max(ends) - min(ends) < 0.01

    def test_collective_records(self, base_cluster, cg_like):
        trace = TraceCollector()
        ClusterEmulator(base_cluster, cg_like, IDEAL).run(
            block(base_cluster, cg_like.n_rows), observer=trace, iterations=1
        )
        collectives = trace.of_kind(Op.COLLECTIVE)
        # One record per node per collective section (allgather + reduce).
        assert len(collectives) == 8 * 2

    def test_single_node_cluster_runs(self, jacobi_like):
        from repro.cluster import baseline_cluster

        solo = baseline_cluster(name="solo", n_nodes=1)
        res = ClusterEmulator(solo, jacobi_like, IDEAL).run(
            GenBlock([jacobi_like.n_rows])
        )
        assert res.total_seconds > 0


class TestPerturbations:
    def test_noise_changes_result(self, base_cluster, jacobi_like):
        d = block(base_cluster, jacobi_like.n_rows)
        ideal = ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(d)
        noisy = ClusterEmulator(
            base_cluster,
            jacobi_like,
            PerturbationConfig.none().without(compute_noise=True),
        ).run(d)
        assert noisy.total_seconds != ideal.total_seconds

    def test_noise_is_small(self, base_cluster, jacobi_like):
        d = block(base_cluster, jacobi_like.n_rows)
        ideal = ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(d)
        noisy = ClusterEmulator(
            base_cluster,
            jacobi_like,
            PerturbationConfig.none().without(compute_noise=True),
        ).run(d)
        ratio = noisy.total_seconds / ideal.total_seconds
        assert 0.95 < ratio < 1.05

    def test_sparse_weights_shift_load(self, base_cluster):
        import numpy as np

        from repro.program import ProgramBuilder

        n = 1024
        weights = np.ones(n)
        weights[: n // 8] = 3.0  # node 0's rows are heavy
        program = (
            ProgramBuilder("skewed", n_rows=n, iterations=2)
            .distributed("a", cols=64, access="read-only")
            .section("s")
            .stage("st", reads=["a"], work_per_row=1e-5)
            .reduction(8)
            .weights(weights)
            .build()
        )
        d = block(base_cluster, n)
        uniform = ClusterEmulator(
            base_cluster,
            program,
            PerturbationConfig.none(),
        ).run(d)
        skewed = ClusterEmulator(
            base_cluster,
            program,
            PerturbationConfig.none().without(sparse_weights=True),
        ).run(d)
        assert skewed.total_seconds > uniform.total_seconds
