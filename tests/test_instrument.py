"""Unit tests for repro.instrument (hooks, microbench, inputs, collect)."""

import pytest

from repro.distribution import block
from repro.exceptions import InstrumentationError, ModelError
from repro.instrument import (
    HookRegistry,
    MhetaInputs,
    NodeCosts,
    StageCost,
    VariableIOCost,
    collect_inputs,
    run_microbenchmarks,
)
from repro.instrument.collect import MeasurementConfig
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.sim.trace import (
    ALL_OPS,
    EventRecord,
    Op,
    PhaseAccumulator,
    TraceCollector,
    observed_kinds,
)
from repro.util.units import mib
from tests.conftest import make_cg_like, make_jacobi_like

IDEAL = PerturbationConfig.none()


def record(op=Op.READ, node=0, var="v", duration=1.0):
    return EventRecord(
        op=op,
        node=node,
        iteration=0,
        section="s",
        tile=0,
        stage="st",
        variable=var,
        start=0.0,
        end=duration,
        nbytes=8.0,
    )


class TestHookRegistry:
    def test_dispatch_by_kind(self):
        hooks = HookRegistry()
        seen = []
        hooks.register(Op.READ, seen.append)
        hooks(record(Op.READ))
        hooks(record(Op.WRITE))
        assert len(seen) == 1

    def test_catch_all(self):
        hooks = HookRegistry()
        seen = []
        hooks.register_all(seen.append)
        hooks(record(Op.READ))
        hooks(record(Op.WRITE))
        assert len(seen) == 2

    def test_unregister(self):
        hooks = HookRegistry()
        seen = []
        hooks.register(Op.READ, seen.append)
        hooks.unregister(Op.READ, seen.append)
        hooks(record(Op.READ))
        assert not seen

    def test_unregister_missing_is_noop(self):
        HookRegistry().unregister(Op.READ, lambda r: None)

    def test_kinds_are_the_registered_ones(self):
        hooks = HookRegistry()
        seen = []
        assert hooks.kinds == frozenset()
        hooks.register(Op.READ, seen.append)
        hooks.register(Op.COMPUTE, seen.append)
        assert hooks.kinds == {Op.READ, Op.COMPUTE}
        hooks.unregister(Op.READ, seen.append)
        assert hooks.kinds == {Op.COMPUTE}
        hooks.register_all(seen.append)
        assert hooks.kinds == ALL_OPS

    def test_observed_kinds(self):
        """A registry is read for its kinds; any other observer, and any
        chain holding one, reads every kind."""
        hooks = HookRegistry()
        hooks.register(Op.WRITE, lambda r: None)
        assert observed_kinds(None) == frozenset()
        assert observed_kinds(hooks) == {Op.WRITE}
        assert observed_kinds(TraceCollector()) == ALL_OPS
        assert observed_kinds(PhaseAccumulator(), hooks) == ALL_OPS
        assert observed_kinds(lambda r: None, None) == ALL_OPS


class TestMicrobenchmarks:
    def test_network_parameters_recovered(self, base_cluster):
        micro = run_microbenchmarks(base_cluster)
        net = base_cluster.network
        assert micro.send_overhead == pytest.approx(net.send_overhead, rel=1e-9)
        assert micro.recv_overhead == pytest.approx(net.recv_overhead, rel=1e-9)
        assert micro.byte_latency == pytest.approx(
            net.latency_per_byte, rel=1e-9
        )
        assert micro.fixed_latency == pytest.approx(
            net.fixed_latency, rel=1e-6
        )

    def test_disk_parameters_recovered(self, hetero_cluster):
        micro = run_microbenchmarks(hetero_cluster)
        for bench, node in zip(micro.disks, hetero_cluster.nodes):
            assert bench.read_seek == pytest.approx(node.disk_read_seek, rel=1e-9)
            assert bench.write_seek == pytest.approx(
                node.disk_write_seek, rel=1e-9
            )
            assert bench.read_byte_latency == pytest.approx(
                1.0 / node.disk_read_bw, rel=1e-9
            )
            assert bench.write_byte_latency == pytest.approx(
                1.0 / node.disk_write_bw, rel=1e-9
            )

    def test_transfer_estimate(self, base_cluster):
        micro = run_microbenchmarks(base_cluster)
        net = base_cluster.network
        assert micro.transfer_seconds(12345) == pytest.approx(
            net.transfer_seconds(12345), rel=1e-6
        )

    def test_single_node_cluster(self):
        from repro.cluster import baseline_cluster

        micro = run_microbenchmarks(baseline_cluster(n_nodes=1))
        assert micro.send_overhead == 0.0
        assert len(micro.disks) == 1


class TestCollect:
    def test_every_stage_measured(self, base_cluster, jacobi_like):
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        for node_costs in inputs.nodes:
            assert node_costs.stage_cost("sweep", "update") is not None
            assert node_costs.stage_cost("residual", "norm") is not None

    def test_forced_io_measures_in_core_variables(self, base_cluster, jacobi_like):
        # Under Blk everything fits in memory, yet I/O costs must exist
        # (paper: all nodes are forced to perform I/O when instrumented).
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        for node_costs in inputs.nodes:
            assert "grid" in node_costs.io
            io = node_costs.io["grid"]
            assert io.read_seconds_per_byte > 0
            assert io.write_seconds_per_byte > 0  # grid is read-write

    def test_read_only_variable_has_no_write_latency(self, base_cluster, cg_like):
        d0 = block(base_cluster, cg_like.n_rows)
        inputs = collect_inputs(
            base_cluster, cg_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        a_cost = inputs.nodes[0].io["A"]
        assert a_cost.read_seconds_per_byte > 0
        assert a_cost.write_seconds_per_byte == 0.0

    def test_latencies_match_disk_speed(self, base_cluster, jacobi_like):
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        node = base_cluster[0]
        measured = inputs.nodes[0].io["grid"].read_seconds_per_byte
        assert measured == pytest.approx(1.0 / node.disk_read_bw, rel=0.05)

    def test_measurement_bias_inflates_costs(self, base_cluster, jacobi_like):
        d0 = block(base_cluster, jacobi_like.n_rows)
        perfect = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        biased = collect_inputs(
            base_cluster, jacobi_like, d0, perturbation=IDEAL,
            measurement=MeasurementConfig(
                relative_bias=0.05, relative_sigma=0.0, timer_overhead=0.0
            ),
        )
        key = NodeCosts.stage_key("sweep", "update")
        assert biased.nodes[0].stages[key].compute_seconds > (
            perfect.nodes[0].stages[key].compute_seconds
        )

    def test_prefetch_program_records_overlap(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=2048, iterations=1)
        pf = program.with_prefetch()
        d0 = block(base_cluster, pf.n_rows)
        inputs = collect_inputs(
            base_cluster, pf, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        key = NodeCosts.stage_key("sweep", "update")
        cost = inputs.nodes[0].stages[key]
        assert cost.blocks_measured >= 2
        assert cost.overlap_per_block > 0.0

    def test_observed_run_builds_only_the_records_its_hooks_read(
        self, base_cluster, jacobi_like
    ):
        """An instrumented run observed by a registry builds records of
        the hooked kinds only: the subsequence of a full trace's records
        of those kinds, in the same order, and the timing is the full
        trace's."""
        d0 = block(base_cluster, jacobi_like.n_rows)
        emulator = ClusterEmulator(base_cluster, jacobi_like)
        trace = TraceCollector()
        full = emulator.run(
            d0, observer=trace, io_mode="instrumented", iterations=1
        )
        built, seen = [], []

        class Counting(HookRegistry):
            def __call__(self, record):
                built.append(record.op)
                super().__call__(record)

        hooks = Counting()
        hooks.register(Op.COMPUTE, seen.append)
        hooks.register(Op.WRITE, seen.append)
        part = emulator.run(
            d0, observer=hooks, io_mode="instrumented", iterations=1
        )
        assert set(built) == {Op.COMPUTE, Op.WRITE}
        assert seen == [
            r for r in trace.records if r.op in (Op.COMPUTE, Op.WRITE)
        ]
        assert len(seen) < len(trace.records)
        assert part.iteration_ends == full.iteration_ends

    def test_jitter_is_one_vector_draw(self, base_cluster, jacobi_like,
                                       monkeypatch):
        """The timer jitter of the instrumented run is drawn in one
        call, one normal per measured record."""
        import repro.instrument.collect as collect_mod

        sizes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def normal(self, loc, scale, size=None):
                sizes.append(size)
                return self.rng.normal(loc, scale, size)

        real = collect_mod.stream
        monkeypatch.setattr(
            collect_mod, "stream", lambda *labels: Recording(real(*labels))
        )
        d0 = block(base_cluster, jacobi_like.n_rows)
        trace = TraceCollector()
        ClusterEmulator(base_cluster, jacobi_like, IDEAL).run(
            d0, observer=trace, io_mode="instrumented", iterations=1
        )
        measured = [
            r for r in trace.records
            if (r.op == Op.COMPUTE and r.stage is not None)
            or (r.op in (Op.READ, Op.WRITE) and r.variable is not None)
        ]
        collect_inputs(base_cluster, jacobi_like, d0, perturbation=IDEAL)
        assert sizes == [len(measured)]

    def test_wrong_distribution_raises(self, base_cluster, jacobi_like):
        bad = block(base_cluster, jacobi_like.n_rows + 8)
        with pytest.raises(InstrumentationError):
            collect_inputs(base_cluster, jacobi_like, bad)

    def test_micro_reuse(self, base_cluster, jacobi_like):
        micro = run_microbenchmarks(base_cluster)
        d0 = block(base_cluster, jacobi_like.n_rows)
        inputs = collect_inputs(
            base_cluster, jacobi_like, d0, micro=micro, perturbation=IDEAL
        )
        assert inputs.micro is micro


class TestMhetaInputsSerialisation:
    def _roundtrip(self, base_cluster, program):
        d0 = block(base_cluster, program.n_rows)
        inputs = collect_inputs(
            base_cluster, program, d0, perturbation=IDEAL,
            measurement=MeasurementConfig.perfect(),
        )
        return inputs, MhetaInputs.from_json(inputs.to_json())

    def test_json_roundtrip(self, base_cluster, jacobi_like):
        original, restored = self._roundtrip(base_cluster, jacobi_like)
        assert restored == original

    def test_file_roundtrip(self, tmp_path, base_cluster, cg_like):
        d0 = block(base_cluster, cg_like.n_rows)
        inputs = collect_inputs(
            base_cluster, cg_like, d0, perturbation=IDEAL
        )
        path = tmp_path / "mheta.json"
        inputs.save(path)
        assert MhetaInputs.load(path) == inputs

    def test_node_count_mismatch_raises(self):
        with pytest.raises(ModelError):
            MhetaInputs(
                program_name="p",
                prefetch=False,
                distribution0=(1, 2),
                micro=_dummy_micro(),
                nodes=(NodeCosts(rows0=1, stages={}, io={}),),
            )


def _dummy_micro():
    from repro.instrument.microbench import Microbenchmarks, NodeDiskBench

    return Microbenchmarks(
        send_overhead=0.0,
        recv_overhead=0.0,
        byte_latency=0.0,
        fixed_latency=0.0,
        prefetch_issue_overhead=0.0,
        disks=(NodeDiskBench(0.0, 0.0, 0.0, 0.0),),
    )


class TestCostRecords:
    def test_stage_key_format(self):
        assert NodeCosts.stage_key("a", "b") == "a/b"

    def test_stage_cost_lookup(self):
        costs = NodeCosts(
            rows0=10,
            stages={"a/b": StageCost(compute_seconds=1.0)},
            io={},
        )
        assert costs.stage_cost("a", "b").compute_seconds == 1.0
        assert costs.stage_cost("a", "missing") is None

    def test_variable_io_cost_fields(self):
        cost = VariableIOCost(
            read_seconds_per_byte=1e-8,
            write_seconds_per_byte=2e-8,
            bytes_observed=100.0,
            accesses_observed=3,
        )
        assert cost.read_seconds_per_byte < cost.write_seconds_per_byte
