"""Golden fast-forward equivalence suite plus run-cache semantics.

The steady-state fast path (`repro.sim.steady`) must be an *invisible*
optimisation: on every seed application x cluster combination, sync and
prefetching, the extrapolated ``RunResult`` has to match full
event-by-event simulation to <= 1e-9 relative on the total, every
node's finish time and every iteration end — and any run the fast path
cannot honestly reproduce (perturbed, observed, instrumented,
non-uniform iterations, non-converging) must silently fall back to the
full simulation, bit for bit.
"""

import numpy as np
import pytest

import repro.sim.executor as executor_mod
from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import table1_configs
from repro.distribution import block
from repro.parallel.cache import RunCache
from repro.obs import Recorder
from repro.sim import (
    ClusterEmulator,
    FastForwardPolicy,
    PerturbationConfig,
    emulate,
    supports_fast_forward,
)
from repro.sim.steady import FAST_FORWARD_POLICY, extrapolate_ends, steady_deltas
from repro.sim.trace import TraceCollector
from tests.emulator_reference import engine_run

SCALE = 0.05
ITERATIONS = 16  # > probe window (default policy simulates 7)
APPS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "lanczos": LanczosApp,
    "rna": RnaPipelineApp,
    "multigrid": MultigridApp,
}

#: Deterministic-but-rich ground truth: every iteration-invariant
#: effect stays on (cache effects, OS read cache, sparse weights,
#: runtime overhead); only the stochastic computation noise is off.
DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _rel_close(a, b, tol=1e-9):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) <= tol


def _run_pair(cluster, program, perturbation=DETERMINISTIC):
    emulator = ClusterEmulator(cluster, program, perturbation)
    d = block(cluster, program.n_rows)
    full = engine_run(emulator, d)
    fast = emulator.run(d)
    return full, fast


class TestGoldenEquivalence:
    """Fast-forward vs full simulation over the whole seed grid."""

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("io_mode", ["sync", "prefetch"])
    def test_matches_full_simulation(self, config, app, io_mode):
        cluster = table1_configs()[config]
        application = APPS[app].paper(SCALE)
        program = (
            application.prefetching()
            if io_mode == "prefetch"
            else application.structure
        ).with_iterations(ITERATIONS)
        full, fast = _run_pair(cluster, program)

        assert not full.fast_forwarded
        assert fast.fast_forwarded, "fast path should engage on this grid"
        assert _rel_close(full.total_seconds, fast.total_seconds)
        assert _rel_close(full.per_node_seconds, fast.per_node_seconds)
        assert len(fast.iteration_ends) == len(full.iteration_ends)
        for full_ends, fast_ends in zip(
            full.iteration_ends, fast.iteration_ends
        ):
            assert len(fast_ends) == len(full_ends) == ITERATIONS
            assert _rel_close(full_ends, fast_ends)

    def test_total_is_max_of_per_node(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        _, fast = _run_pair(cluster, program)
        assert fast.total_seconds == max(fast.per_node_seconds)
        assert fast.iterations == ITERATIONS


class TestFallbacks:
    """Runs the fast path must not touch fall back to full simulation."""

    def _cluster_program(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program

    def test_perturbed_run_bypasses_and_is_bitwise_identical(self):
        cluster, program = self._cluster_program()
        full, fast = _run_pair(cluster, program, PerturbationConfig())
        assert not fast.fast_forwarded
        assert fast.total_seconds == full.total_seconds
        assert fast.iteration_ends == full.iteration_ends

    def test_background_load_bypasses(self):
        cluster, program = self._cluster_program()
        pert = DETERMINISTIC.without(background_load=0.2)
        assert not supports_fast_forward(program, pert)
        _, fast = _run_pair(cluster, program, pert)
        assert not fast.fast_forwarded

    def test_observer_bypasses_and_sees_every_iteration(self):
        cluster, program = self._cluster_program()
        trace = TraceCollector()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        result = emulator.run(block(cluster, program.n_rows), observer=trace)
        assert not result.fast_forwarded
        iterations = {r.iteration for r in trace.records}
        assert iterations == set(range(ITERATIONS))

    def test_instrumented_bypasses(self):
        cluster, program = self._cluster_program()
        rec = Recorder()
        result = emulate(
            cluster, program, block(cluster, program.n_rows),
            perturbation=DETERMINISTIC, io_mode="instrumented",
            run_cache=False, telemetry=rec,
        )
        assert not result.fast_forwarded
        assert rec.counters["sim/fallback/instrumented"] == 1

    def test_iteration_profile_bypasses(self):
        cluster, program = self._cluster_program()
        profile = np.linspace(1.0, 2.0, ITERATIONS)
        varying = program.with_iteration_profile(profile)
        full, fast = _run_pair(cluster, varying)
        assert not fast.fast_forwarded
        assert fast.total_seconds == full.total_seconds

    def test_short_run_bypasses(self):
        cluster, program = self._cluster_program()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        policy = FAST_FORWARD_POLICY
        short = emulator.run(
            block(cluster, program.n_rows),
            iterations=policy.probe_iterations,
        )
        assert not short.fast_forwarded

    def test_non_converging_probe_falls_back(self, monkeypatch):
        cluster, program = self._cluster_program()
        monkeypatch.setattr(
            executor_mod, "steady_deltas", lambda ends, policy: None
        )
        full, fast = _run_pair(cluster, program)
        assert not fast.fast_forwarded
        assert fast.iteration_ends == full.iteration_ends


class TestSteadyDetection:
    """Unit-level checks of the cycle detector itself."""

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FastForwardPolicy(warmup=-1)
        with pytest.raises(ValueError):
            FastForwardPolicy(stable=1)
        assert FastForwardPolicy(warmup=2, stable=4).probe_iterations == 7

    def test_constant_deltas_detected(self):
        policy = FastForwardPolicy(warmup=1, stable=3)
        ends = [[1.0 * (i + 1) for i in range(policy.probe_iterations)]]
        assert steady_deltas(ends, policy) == [1.0]

    def test_warmup_transient_is_forgiven(self):
        policy = FastForwardPolicy(warmup=2, stable=3)
        # Two slow warm-up iterations, then exact steady state.
        ends, t = [], 0.0
        for i in range(policy.probe_iterations):
            t += 5.0 if i < 2 else 2.0
            ends.append(t)
        assert steady_deltas([ends], policy) == [2.0]

    def test_unstable_tail_rejected(self):
        policy = FastForwardPolicy(warmup=1, stable=3)
        ends, t = [], 0.0
        for i in range(policy.probe_iterations):
            t += 1.0 + 0.01 * i  # keeps drifting
            ends.append(t)
        assert steady_deltas([ends], policy) is None

    def test_one_unstable_node_rejects_all(self):
        policy = FastForwardPolicy(warmup=1, stable=3)
        n = policy.probe_iterations
        stable = [1.0 * (i + 1) for i in range(n)]
        drifting = [sum(1.0 + 0.01 * j for j in range(i + 1)) for i in range(n)]
        assert steady_deltas([stable, drifting], policy) is None

    def test_short_probe_rejected(self):
        policy = FastForwardPolicy(warmup=2, stable=4)
        assert steady_deltas([[1.0, 2.0, 3.0]], policy) is None

    def test_zero_delta_node_extrapolates_flat(self):
        # A node with no work per iteration keeps a flat clock.
        assert extrapolate_ends([0.0, 0.0, 0.0], 0.0, 6) == [0.0] * 6

    def test_extrapolate_is_closed_form(self):
        ends = extrapolate_ends([1.0, 2.0], 0.5, 5)
        assert ends == [1.0, 2.0, 2.5, 3.0, 3.5]


class TestEmulateAndRunCache:
    """`emulate()` + the shared content-keyed run cache."""

    def _workload(self):
        cluster = table1_configs()["DC"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program, block(cluster, program.n_rows)

    def test_hit_returns_equal_result(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        first = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        second = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        assert cache.hits == 1 and cache.misses == 1
        assert second.total_seconds == first.total_seconds
        assert second.iteration_ends == first.iteration_ends

    def test_hit_is_a_defensive_copy(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        first = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        first.iteration_ends[0][0] = -1.0
        first.per_node_seconds[0] = -1.0
        second = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        assert second.iteration_ends[0][0] != -1.0
        assert second.per_node_seconds[0] != -1.0

    def test_key_separates_iterations_and_perturbation(self):
        cluster, program, d = self._workload()
        base = RunCache.key(cluster, program, d, 10, DETERMINISTIC)
        assert base == RunCache.key(cluster, program, d, 10, DETERMINISTIC)
        assert base != RunCache.key(cluster, program, d, 11, DETERMINISTIC)
        assert base != RunCache.key(
            cluster, program, d, 10, PerturbationConfig()
        )
        assert base != RunCache.key(
            cluster, program, d, 10, DETERMINISTIC, instrumented=True
        )

    def test_cache_false_bypasses(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        emulate(cluster, program, d, perturbation=DETERMINISTIC, run_cache=False)
        assert len(cache) == 0

    def test_observer_bypasses_cache(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        emulate(cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache)
        trace = TraceCollector()
        emulate(
            cluster,
            program,
            d,
            perturbation=DETERMINISTIC,
            run_cache=cache,
            observer=trace,
        )
        # The observed run simulated for real: records exist and the
        # cache saw no second lookup.
        assert trace.records
        assert cache.hits == 0

    def test_bounded_lru_discipline(self):
        cache = RunCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("c") == 3
        assert cache.stats["evictions"] == 1
