"""Golden suite for batched, plan-compiled emulation.

``emulate_many`` must be an *invisible* amortisation: for every seed
application x cluster combination, sync and prefetching, its results
are bit-identical to looping ``emulate`` — same totals, same per-node
finish times, same iteration ends, same fast-forward flags.  Runs the
compiled :class:`EmulationPlan` cannot honestly serve (perturbed,
non-converging, short) must fall back per candidate to the exact
engine path, and the run cache must interact with batches exactly as
with single runs.  Plus the engine regression pin: a non-traced run
allocates zero ``EventRecord`` objects.
"""

import numpy as np
import pytest

import repro.sim.executor as executor_mod
import repro.sim.plan_sim as plan_sim
from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import table1_configs
from repro.distribution import GenBlock, block
from repro.obs import Recorder
from repro.parallel.cache import RunCache
from repro.sim import ClusterEmulator, PerturbationConfig, emulate, emulate_many
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

DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _population(cluster, program, n=6, seed=0):
    """The block anchor plus ``n - 1`` random GEN_BLOCK layouts."""
    rng = np.random.default_rng(seed)
    P = len(cluster.nodes)
    dists = [block(cluster, program.n_rows)]
    for _ in range(n - 1):
        w = rng.random(P) + 0.3
        counts = np.floor(w / w.sum() * program.n_rows).astype(int)
        counts[0] += program.n_rows - counts.sum()
        dists.append(GenBlock(tuple(int(c) for c in counts)))
    return dists


def _assert_bitwise(batch, loop):
    assert len(batch) == len(loop)
    for b, l in zip(batch, loop):
        assert b.total_seconds == l.total_seconds
        assert tuple(b.per_node_seconds) == tuple(l.per_node_seconds)
        assert [list(e) for e in b.iteration_ends] == [
            list(e) for e in l.iteration_ends
        ]
        assert b.fast_forwarded == l.fast_forwarded
        assert tuple(b.distribution.counts) == tuple(l.distribution.counts)


class TestGoldenBatchEquivalence:
    """emulate_many == looped emulate, bit for bit, over the seed grid."""

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("io_mode", ["sync", "prefetch"])
    def test_matches_looped_emulate(self, config, app, io_mode):
        cluster = table1_configs()[config]
        application = APPS[app].paper(SCALE)
        program = (
            application.prefetching()
            if io_mode == "prefetch"
            else application.structure
        ).with_iterations(ITERATIONS)
        dists = _population(cluster, program, n=4)
        batch = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=False,
        )
        loop = [
            emulate(
                cluster, program, d,
                perturbation=DETERMINISTIC, run_cache=False,
            )
            for d in dists
        ]
        _assert_bitwise(batch, loop)
        assert all(b.fast_forwarded for b in batch), (
            "the plan path should engage on this grid"
        )

    def test_duplicates_deduplicated_not_aliased(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        d = block(cluster, program.n_rows)
        batch = emulate_many(
            cluster, program, [d, d, d],
            perturbation=DETERMINISTIC, run_cache=False,
        )
        assert (
            batch[0].total_seconds
            == batch[1].total_seconds
            == batch[2].total_seconds
        )
        # Distinct result objects: mutating one must not leak.
        batch[0].per_node_seconds[0] = -1.0
        assert batch[1].per_node_seconds[0] != -1.0

    def test_empty_population(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        assert emulate_many(cluster, program, [], run_cache=False) == []


class TestBatchFallbacks:
    """Candidates the plan cannot serve fall back to the engine path."""

    def _cluster_program(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program

    def test_perturbed_batch_is_engine_bitwise(self):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=3)
        batch = emulate_many(
            cluster, program, dists,
            perturbation=PerturbationConfig(), run_cache=False,
        )
        loop = [
            emulate(
                cluster, program, d,
                perturbation=PerturbationConfig(), run_cache=False,
            )
            for d in dists
        ]
        _assert_bitwise(batch, loop)
        assert not any(b.fast_forwarded for b in batch)

    def test_short_run_never_fast_forwards(self):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=2)
        batch = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, iterations=3, run_cache=False,
        )
        loop = [
            emulate(
                cluster, program, d,
                perturbation=DETERMINISTIC, iterations=3, run_cache=False,
            )
            for d in dists
        ]
        _assert_bitwise(batch, loop)
        assert not any(b.fast_forwarded for b in batch)

    def test_non_converging_probe_falls_back(self, monkeypatch):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=2)
        monkeypatch.setattr(
            executor_mod, "steady_deltas", lambda ends, policy: None
        )
        batch = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=False,
        )
        assert not any(b.fast_forwarded for b in batch)
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        full = [engine_run(emulator, d) for d in dists]
        _assert_bitwise(batch, full)

    def test_dead_plan_serves_batches_through_the_engine(self):
        cluster, program = self._cluster_program()
        plan = plan_sim.get_emulation_plan(
            cluster, program, DETERMINISTIC, None
        )
        assert plan is not None
        original = plan.dead
        try:
            plan.dead = "forced dead for test"
            dists = _population(cluster, program, n=2)
            batch = emulate_many(
                cluster, program, dists,
                perturbation=DETERMINISTIC, run_cache=False,
            )
            loop = [
                emulate(
                    cluster, program, d,
                    perturbation=DETERMINISTIC, run_cache=False,
                )
                for d in dists
            ]
            _assert_bitwise(batch, loop)
        finally:
            plan.dead = original


class TestBatchCacheInteraction:
    def _cluster_program(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program

    def test_batch_fills_and_hits_the_cache(self):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=4)
        store = RunCache()
        first = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=store,
        )
        assert len(store) == len(dists)
        rec = Recorder()
        second = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=store, telemetry=rec,
        )
        _assert_bitwise(second, first)
        counters = rec.snapshot()["counters"]
        assert counters["sim/batch/cache_hits"] == len(dists)
        assert counters["sim/batch/passes"] == 1

    def test_batch_results_seed_single_emulate(self):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=3)
        store = RunCache()
        batch = emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=store,
        )
        for d, expected in zip(dists, batch):
            single = emulate(
                cluster, program, d,
                perturbation=DETERMINISTIC, run_cache=store,
            )
            assert single.total_seconds == expected.total_seconds

    def test_one_pass_per_call_counter(self):
        cluster, program = self._cluster_program()
        dists = _population(cluster, program, n=5)
        rec = Recorder()
        emulate_many(
            cluster, program, dists,
            perturbation=DETERMINISTIC, run_cache=False, telemetry=rec,
        )
        counters = rec.snapshot()["counters"]
        assert counters["sim/batch/passes"] == 1
        assert counters["sim/batch/candidates"] == len(dists)
        assert counters["sim/batch/plan_runs"] == len(dists)
        assert counters.get("sim/batch/fallbacks", 0) == 0


class TestEventRecordAllocationPin:
    """Non-traced runs must never construct EventRecord objects."""

    def test_untraced_run_allocates_zero_records(self, monkeypatch):
        constructed = []
        real = executor_mod.EventRecord

        def counting(*args, **kwargs):
            constructed.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "EventRecord", counting)
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        d = block(cluster, program.n_rows)
        engine_run(ClusterEmulator(cluster, program, DETERMINISTIC), d)
        emulate_many(
            cluster, program, [d],
            perturbation=DETERMINISTIC, run_cache=False,
        )
        assert constructed == []
