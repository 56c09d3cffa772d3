"""Tests for time-varying clusters (repro.cluster.dynamics) and the
consolidated keyword-driven emulation API.

The golden guarantees this file pins down:

* ``dynamics=None`` and an attached-but-empty spec are *bitwise*
  identical to the historical static emulator output, and keep the
  steady-state fast path eligible;
* any truthy spec refuses fast-forward (``supports_fast_forward`` says
  no, and the result is never extrapolated);
* dynamic runs are deterministic — repeated scalar runs and the batched
  ``emulate_many`` agree bitwise;
* mid-run segments (``iteration_offset``) replay exactly the factors
  the same global iterations of a continuous run see;
* an unknown ``io_mode`` is rejected;
* the background-load process no longer shares the compute-noise RNG
  stream (toggling ``compute_noise`` must not move the load trajectory).
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    CpuDrift,
    DiskDegradation,
    DynamicsSpec,
    LoadTrace,
    NodeEvent,
    NodeLoad,
    DYNAMICS_SCENARIOS,
    baseline_cluster,
    config_dc,
    config_hy1,
    dynamics_scenario,
    dynamics_scenarios,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.apps import application_by_name
from repro.distribution import balanced, block
from repro.sim import PerturbationConfig
from repro.sim.executor import ClusterEmulator, emulate, emulate_many
from repro.sim.perturbation import PerturbationModel
from repro.sim.steady import supports_fast_forward
from repro.runtime import AdaptiveRuntime
from tests.emulator_reference import engine_run

SCALE = 0.02


def _program(app="jacobi", scale=SCALE):
    return application_by_name(app, scale).structure


def _drift_spec(n_nodes=8, start=2):
    return dynamics_scenario("drift", n_nodes, start=start)


# ---------------------------------------------------------------------------
# spec construction and validation


class TestSpecs:
    def test_all_named_scenarios_build(self):
        specs = dynamics_scenarios(8)
        assert set(specs) == set(DYNAMICS_SCENARIOS)
        for name, spec in specs.items():
            assert isinstance(spec, DynamicsSpec)
            assert spec.name == name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            dynamics_scenario("meteor-strike")

    def test_stationary_scenario_is_falsy(self):
        spec = dynamics_scenario("stationary")
        assert not spec
        assert spec.stationary

    def test_bad_components_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(mean=1.5)
        with pytest.raises(ConfigurationError):
            CpuDrift(0, rate=-0.1)
        with pytest.raises(ConfigurationError):
            DiskDegradation(-1, rate=0.1)
        with pytest.raises(ConfigurationError):
            NodeEvent(0, at_iteration=3, kind="explode")

    def test_spec_validates_node_range(self):
        spec = DynamicsSpec(cpu_drift=(CpuDrift(9, rate=0.1),))
        with pytest.raises(ConfigurationError):
            spec.validate(8)
        with pytest.raises(ConfigurationError):
            emulate(
                baseline_cluster(),
                _program(),
                block(baseline_cluster(), _program().n_rows),
                dynamics=spec,
            )

    def test_cluster_attaches_and_detaches_dynamics(self):
        cluster = config_dc()
        spec = _drift_spec()
        dyn = cluster.with_dynamics(spec)
        assert dyn.dynamics is spec
        assert cluster.dynamics is None
        assert dyn.with_dynamics(None).dynamics is None

    def test_drift_factor_shape(self):
        drift = CpuDrift(0, rate=0.5, floor=0.4, start_iteration=10)
        assert drift.factor_at(0) == 1.0
        assert drift.factor_at(10) == 1.0
        assert 0.4 < drift.factor_at(12) < 1.0
        assert drift.factor_at(10_000) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# golden: static path untouched


class TestStaticBitwiseIdentity:
    @pytest.mark.parametrize("app", ["jacobi", "cg"])
    @pytest.mark.parametrize("make", [config_dc, config_hy1])
    def test_empty_spec_is_bitwise_identical(self, app, make):
        cluster = make()
        program = _program(app)
        d = balanced(cluster, program.n_rows)
        plain = emulate(cluster, program, d, run_cache=False)
        attached = emulate(
            cluster.with_dynamics(DynamicsSpec()), program, d,
            run_cache=False,
        )
        explicit = emulate(
            cluster, program, d, dynamics=DynamicsSpec(), run_cache=False
        )
        assert attached.total_seconds == plain.total_seconds
        assert attached.per_node_seconds == plain.per_node_seconds
        assert explicit.total_seconds == plain.total_seconds
        # The empty spec is stationary: the fast path stays eligible.
        assert attached.fast_forwarded == plain.fast_forwarded

    def test_dynamics_false_forces_static(self):
        cluster = config_dc().with_dynamics(_drift_spec())
        program = _program()
        d = block(cluster, program.n_rows)
        plain = emulate(config_dc(), program, d, run_cache=False)
        forced = emulate(cluster, program, d, dynamics=False, run_cache=False)
        attached = emulate(cluster, program, d, run_cache=False)
        assert forced.total_seconds == plain.total_seconds
        assert attached.total_seconds != plain.total_seconds


# ---------------------------------------------------------------------------
# non-stationarity refuses the fast path


class TestFastForwardRefusal:
    def test_supports_fast_forward_gate(self):
        program = _program()
        quiet = PerturbationConfig.none()
        assert supports_fast_forward(program, quiet)
        assert supports_fast_forward(program, quiet, dynamics=None)
        assert supports_fast_forward(program, quiet, dynamics=DynamicsSpec())
        assert not supports_fast_forward(
            program, quiet, dynamics=_drift_spec()
        )

    def test_dynamic_run_never_fast_forwards(self):
        cluster = config_dc()
        program = _program()
        quiet = PerturbationConfig.none()
        d = block(cluster, program.n_rows)
        static = emulate(
            cluster, program, d, perturbation=quiet, run_cache=False
        )
        assert static.fast_forwarded  # sanity: the static run does
        dyn = emulate(
            cluster, program, d, perturbation=quiet,
            dynamics=_drift_spec(), run_cache=False,
        )
        assert not dyn.fast_forwarded

    def test_offset_segment_never_fast_forwards(self):
        cluster = config_dc()
        program = _program()
        d = block(cluster, program.n_rows)
        seg = emulate(
            cluster, program, d, iterations=8, iteration_offset=5,
            run_cache=False,
        )
        assert not seg.fast_forwarded
        with pytest.raises(SimulationError):
            ClusterEmulator(cluster, program).run(d, iteration_offset=-1)


# ---------------------------------------------------------------------------
# determinism and batch equivalence


class TestDynamicDeterminism:
    @pytest.mark.parametrize(
        "scenario", ["drift", "load-spike", "node-loss", "disk-fade"]
    )
    def test_repeat_and_batch_bitwise_equal(self, scenario):
        cluster = config_dc()
        program = _program()
        spec = dynamics_scenario(scenario, cluster.n_nodes, start=2)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
        ]
        first = [
            emulate(cluster, program, d, dynamics=spec, run_cache=False)
            for d in dists
        ]
        again = [
            emulate(cluster, program, d, dynamics=spec, run_cache=False)
            for d in dists
        ]
        batch = emulate_many(
            cluster, program, dists, dynamics=spec, run_cache=False
        )
        for a, b, c in zip(first, again, batch):
            assert a.total_seconds == b.total_seconds == c.total_seconds
            assert a.per_node_seconds == c.per_node_seconds

    def test_node_loss_slows_the_lost_node(self):
        cluster = config_dc()
        program = _program()
        spec = dynamics_scenario("node-loss", cluster.n_nodes, start=2)
        d = balanced(cluster, program.n_rows)
        static = emulate(cluster, program, d, run_cache=False)
        lost = emulate(cluster, program, d, dynamics=spec, run_cache=False)
        assert lost.total_seconds > static.total_seconds
        victim = spec.events[0].node
        assert (
            lost.per_node_seconds[victim] > static.per_node_seconds[victim]
        )


# ---------------------------------------------------------------------------
# segment replay


class TestSegmentReplay:
    def test_timeline_slices_replay_global_factors(self):
        spec = dynamics_scenario("load-spike", 8, start=3)
        full = spec.compile(8, 40, 0)
        tail = spec.compile(8, 25, 15)
        for rank in (0, 4):
            for it in (15, 20, 39):
                assert full.compute_multiplier(rank, it) == pytest.approx(
                    tail.compute_multiplier(rank, it), rel=0, abs=0
                )
                assert full.disk_slowdown(rank, it) == tail.disk_slowdown(
                    rank, it
                )

    def test_segment_emulation_sees_global_conditions(self):
        cluster = config_dc()
        program = _program()
        spec = _drift_spec(start=6)
        d = block(cluster, program.n_rows)
        # Before the disturbance begins the segment is static-identical;
        # after it begins the same segment length costs strictly more.
        pre = emulate(
            cluster, program, d, dynamics=spec, iterations=4,
            iteration_offset=0, run_cache=False,
        )
        static = engine_run(ClusterEmulator(cluster, program), d, iterations=4)
        post = emulate(
            cluster, program, d, dynamics=spec, iterations=4,
            iteration_offset=50, run_cache=False,
        )
        assert pre.total_seconds == static.total_seconds
        assert post.total_seconds > pre.total_seconds

    def test_effective_cluster_snapshot(self):
        cluster = config_dc()
        spec = _drift_spec(start=0)
        snap = spec.effective_cluster(cluster, 100)
        assert snap.dynamics is None
        assert isinstance(snap, ClusterSpec)
        for comp in spec.cpu_drift:
            assert (
                snap.nodes[comp.node].cpu_power
                < cluster.nodes[comp.node].cpu_power
            )


# ---------------------------------------------------------------------------
# keyword validation


class TestEmulationKeywords:
    def test_unknown_io_mode_rejected(self):
        cluster = config_dc()
        program = _program()
        d = block(cluster, program.n_rows)
        with pytest.raises(SimulationError):
            emulate(cluster, program, d, io_mode="psychic")


# ---------------------------------------------------------------------------
# perturbation decoupling (satellite fix)


class TestBackgroundLoadDecoupling:
    def test_toggling_noise_does_not_move_the_load_trajectory(self):
        labels = ("clusterX", "progY", "dist", 3)
        loaded = PerturbationConfig(background_load=0.3)
        with_noise = PerturbationModel(loaded, labels)
        without_noise = PerturbationModel(
            loaded.without(compute_noise=False), labels
        )
        # Interleave unrelated noise draws: the load stream must not care.
        seq_a, seq_b = [], []
        for _ in range(32):
            with_noise.noise_factor()
            seq_a.append(with_noise.background_factor())
            seq_b.append(without_noise.background_factor())
        assert seq_a == seq_b
        assert any(f != 1.0 for f in seq_a)

    def test_dedicated_runs_draw_no_load_rng(self):
        model = PerturbationModel(PerturbationConfig(), ("a", "b"))
        assert model.background_factor() == 1.0
        assert model._load is None


# ---------------------------------------------------------------------------
# vector draws equal the scalar paths bit for bit


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestVectorDraws:
    TRACES = [
        LoadTrace(mean=0.5, volatility=0.2),
        # Volatile enough to clip at 0 and at the ceiling.
        LoadTrace(mean=0.6, volatility=3.0, ceiling=0.8),
        LoadTrace(mean=0.0),
    ]

    @pytest.mark.parametrize("trace", TRACES)
    @pytest.mark.parametrize("n", [0, 1, 10, 100, 1000])
    def test_series_and_factors_match_the_scalar_steps(self, trace, n):
        for labels in [("node", 0), ("node", 3), ("a", "b", 7)]:
            scalar = trace.sampler(*labels)
            steps = [scalar.step() for _ in range(n)]
            assert _bits(trace.series(n, *labels)) == _bits(steps)
            scalar = trace.sampler(*labels)
            factors = [scalar.factor() for _ in range(n)]
            assert _bits(trace.sampler(*labels).factors(n)) == _bits(factors)

    def test_clipping_is_exercised(self):
        trace = self.TRACES[1]
        series = trace.series(1000, "node", 0)
        assert (series == 0.0).any() and (series == trace.ceiling).any()

    def test_vector_draws_continue_the_scalar_stream(self):
        trace = self.TRACES[1]
        a, b = trace.sampler("x"), trace.sampler("x")
        scalar = [a.step() for _ in range(30)]
        mixed = [b.step() for _ in range(7)] + b.steps(13) + [
            b.step() for _ in range(10)
        ]
        assert _bits(mixed) == _bits(scalar)

    @pytest.mark.parametrize("load", [0.0, 0.3])
    def test_background_factors_match_the_scalar_draws(self, load):
        pert = PerturbationConfig(background_load=load)
        scalar = PerturbationModel(pert, ("c", "p", "d", 1))
        vector = PerturbationModel(pert, ("c", "p", "d", 1))
        expected = [scalar.background_factor() for _ in range(64)]
        assert _bits(vector.background_factors(64)) == _bits(expected)

    @pytest.mark.parametrize(
        "scenario", ["drift", "load-spike", "node-loss", "disk-fade"]
    )
    def test_timeline_multipliers_match_the_scalar_ones(self, scenario):
        timeline = dynamics_scenario(scenario, 8, start=3).compile(8, 20, 5)
        compute = timeline.compute_multipliers()
        slowdowns = timeline.disk_slowdowns()
        for rank in range(8):
            for it in range(5, 25):
                j = it - 5
                assert _bits(compute[rank, j]) == _bits(
                    timeline.compute_multiplier(rank, it)
                )
                assert _bits(slowdowns[rank, j]) == _bits(
                    timeline.disk_slowdown(rank, it)
                )


# ---------------------------------------------------------------------------
# adaptive runtime under dynamics


class TestAdaptiveDynamics:
    def test_multi_round_report_under_drift(self):
        cluster = config_dc()
        app = application_by_name("jacobi", SCALE)
        spec = dynamics_scenario("drift", cluster.n_nodes, start=10)
        runtime = AdaptiveRuntime(
            cluster,
            app.structure,
            search_budget=40,
            dynamics=spec,
            check_interval=8,
            drift_threshold=0.2,
        )
        report = runtime.run()
        assert report.n_rounds >= 1
        assert report.rounds[0].trigger == "start"
        assert report.rounds[0].at_iteration == 0
        # Every round burns one instrumented iteration; the segments
        # cover the rest — together they account for the whole job.
        total_segments = sum(r.iterations for r in report.rounds)
        assert total_segments + report.n_rounds == app.structure.iterations
        assert report.adaptive_seconds > 0
        desc = report.describe()
        assert "round" in desc or report.n_rounds == 1

    def test_stationary_dynamics_matches_static_runtime(self):
        cluster = config_hy1()
        app = application_by_name("jacobi", SCALE)
        static = AdaptiveRuntime(
            cluster, app.structure, search_budget=30
        ).run()
        stationary = AdaptiveRuntime(
            cluster,
            app.structure,
            search_budget=30,
            dynamics=dynamics_scenario("stationary", cluster.n_nodes),
        ).run()
        # search_wall_seconds is real wall clock (nondeterministic);
        # every emulated component must match bitwise.
        assert stationary.instrumented_seconds == static.instrumented_seconds
        assert stationary.remaining_seconds == static.remaining_seconds
        assert (
            stationary.redistribution_seconds == static.redistribution_seconds
        )
        assert stationary.static_seconds == static.static_seconds
        assert stationary.chosen_distribution == static.chosen_distribution
        assert stationary.n_rounds == static.n_rounds == 1

    def test_dynamics_false_runs_the_plain_cluster(self):
        """``dynamics=False`` leaves the attached dynamics out of every
        emulation: the report matches the plain cluster's."""
        plain = config_hy1()
        program = application_by_name("jacobi", SCALE).structure
        attached = plain.with_dynamics(
            dynamics_scenario("drift", plain.n_nodes, start=5)
        )
        forced, static = (
            AdaptiveRuntime(
                cluster, program, search_budget=20, dynamics=dynamics
            ).run()
            for cluster, dynamics in ((attached, False), (plain, None))
        )
        assert forced.static_seconds == static.static_seconds
        assert forced.remaining_seconds == static.remaining_seconds
        assert forced.instrumented_seconds == static.instrumented_seconds
        assert forced.chosen_distribution == static.chosen_distribution
        assert forced.n_rounds == 1

    def test_bad_knobs_rejected(self):
        cluster = config_dc()
        program = _program()
        with pytest.raises(ValueError):
            AdaptiveRuntime(cluster, program, check_interval=0)
        with pytest.raises(ValueError):
            AdaptiveRuntime(cluster, program, drift_threshold=-1.0)
