"""Stress and scale tests for the event engine and collectives."""

import pytest

from repro.cluster import baseline_cluster
from repro.core import MhetaModel
from repro.distribution import block
from repro.instrument.collect import MeasurementConfig, collect_inputs
from repro.sim import ClusterEmulator, PerturbationConfig
from tests.event_engine import Delay, Engine, Recv, Send
from tests.conftest import make_cg_like, make_jacobi_like, make_pipeline_like

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()


class TestEngineScale:
    def test_many_processes(self):
        """A thousand independent processes complete without issue."""
        engine = Engine()

        def worker(i):
            for _ in range(10):
                yield Delay(0.001 * (i % 7 + 1))

        for i in range(1000):
            engine.add_process(worker(i), node=i)
        total = engine.run()
        assert total == pytest.approx(0.07)

    def test_long_token_ring(self):
        """A token passed around a 100-node ring 5 times."""
        engine = Engine()
        n = 100
        laps = 5

        def node(rank):
            for lap in range(laps):
                if rank == 0 and lap == 0:
                    pass  # node 0 starts holding the token
                else:
                    yield Recv((rank - 1) % n, f"token:{lap}:{rank}")
                nxt = (rank + 1) % n
                next_lap = lap + (1 if nxt == 0 else 0)
                if next_lap < laps:
                    yield Send(
                        nxt, f"token:{next_lap}:{nxt}", transfer=0.001
                    )

        for rank in range(n):
            engine.add_process(node(rank), node=rank)
        total = engine.run()
        # 5 laps x 100 hops x 1ms, minus the final undelivered hop.
        assert total == pytest.approx((laps * n - 1) * 0.001)


class TestLargeClusterExactness:
    """The model-emulator agreement holds beyond 8 nodes (the equations
    never hard-code the paper's cluster size)."""

    @pytest.mark.parametrize("n_nodes", [2, 3, 13, 32])
    def test_jacobi_like(self, n_nodes):
        cluster = baseline_cluster(name=f"wide{n_nodes}", n_nodes=n_nodes)
        program = make_jacobi_like(n_rows=64 * n_nodes, cols=256, iterations=3)
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
        )
        model = MhetaModel(program, cluster, inputs)
        actual = ClusterEmulator(cluster, program, IDEAL).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )

    @pytest.mark.parametrize("n_nodes", [3, 17])
    def test_collective_heavy_program(self, n_nodes):
        cluster = baseline_cluster(name=f"coll{n_nodes}", n_nodes=n_nodes)
        program = make_cg_like(n_rows=32 * n_nodes, iterations=3)
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
        )
        model = MhetaModel(program, cluster, inputs)
        actual = ClusterEmulator(cluster, program, IDEAL).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )

    @pytest.mark.parametrize("n_nodes", [2, 5, 16])
    def test_pipeline_program(self, n_nodes):
        cluster = baseline_cluster(name=f"pipe{n_nodes}", n_nodes=n_nodes)
        program = make_pipeline_like(
            n_rows=32 * n_nodes, cols=128, tiles=6, iterations=2
        )
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
        )
        model = MhetaModel(program, cluster, inputs)
        actual = ClusterEmulator(cluster, program, IDEAL).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )

    def test_non_power_of_two_reduction_tree(self):
        """Binomial reduce/broadcast with P=6 (non-power-of-two) stays
        exact — the tree handles ragged fan-ins."""
        cluster = baseline_cluster(name="six", n_nodes=6)
        program = make_jacobi_like(n_rows=600, cols=64, iterations=4)
        d0 = block(cluster, program.n_rows)
        inputs = collect_inputs(
            cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
        )
        model = MhetaModel(program, cluster, inputs)
        actual = ClusterEmulator(cluster, program, IDEAL).run(d0)
        assert model.predict(d0) == pytest.approx(
            actual.total_seconds, rel=1e-9
        )
