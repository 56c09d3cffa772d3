"""Differential suite: compiled op-tape replay vs the event engine.

The compiled :class:`~repro.sim.plan_sim.EmulationPlan` replays per-rank
op tapes with the engine's exact arithmetic, so a plan-served run whose
iterations differ (noise, background load, cluster dynamics) or that is
no longer than the probe must equal the engine oracle
(:func:`tests.emulator_reference.engine_run`) bit for bit, and a
stationary deterministic one must reproduce the engine's probe window
bit for bit before extrapolating.  Hypothesis
draws the app, the Table-1 cluster, a Dirichlet layout with a one-row
node, the streaming style, the run length, noise and the batch size,
and separately a dynamics scenario and its start, an offset, background
load and short runs.  Every candidate the plan cannot serve is counted
under ``sim/fallback/<reason>`` and still equals the engine, so every
run is either plan-served or a counted fallback; a forced noise or
dynamics-factor mismatch retires the plan at its self-check.  The 2-D
Jacobi emulator's tapes replay through the same plans: one case draws
its grid, bands, node memory, noise, load, dynamics and run length.
The CLI's paper-scale 2-D search winners, 2-D block layouts and 1-D
dynamic runs are pinned to the engine exactly.  The lowering reuses a
repeatable program's first iteration; its tapes must equal, byte for
byte, those of :func:`tests.emulator_reference.lower_in_full`, which
lowers every iteration (1-D draws over apps, ``io_mode``, observation,
offset, length and memory; the 2-D draw over grids and memory).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.executor as executor_mod
import repro.sim.plan_sim as plan_sim
from repro.core.plan import reset_plan_cache
from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    MultigridApp,
    RnaPipelineApp,
    application_by_name,
)
from repro.cluster import dynamics_scenario, table1_configs
from repro.distribution import GenBlock, block, largest_remainder_round
from repro.instrument import HookRegistry
from repro.obs import Recorder
from repro.sim import (
    ClusterEmulator,
    FastForwardPolicy,
    PerturbationConfig,
    emulate,
    emulate_many,
)
from repro.cluster.dynamics import DynamicsTimeline
from repro.sim.perturbation import PerturbationModel
from repro.sim.trace import ALL_OPS, TraceCollector
from repro.twod.jacobi2d import _Lowering2D
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDEmulator,
    TwoDLayoutSearch,
    block2d,
    build_2d_model,
    factor_pairs,
)
from repro.util.units import mib
from tests.emulator_reference import engine_run, lower_in_full

SCALE = 0.05
APPS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "rna": RnaPipelineApp,
    "multigrid": MultigridApp,
}
PROBE = FastForwardPolicy().probe_iterations
NOISY = PerturbationConfig()
DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _program(app, prefetch, iterations):
    application = APPS[app].paper(SCALE)
    program = application.prefetching() if prefetch else application.structure
    return program.with_iterations(iterations)


def _layout(P, n_rows, seed, one_row):
    """A Dirichlet layout whose node ``one_row`` owns exactly one row."""
    shares = np.random.default_rng(seed).dirichlet(np.ones(P - 1))
    rest = largest_remainder_round(shares, n_rows - 1, minimum=1)
    counts = list(rest)
    counts.insert(one_row, 1)
    return GenBlock(tuple(int(c) for c in counts))


def _engine(cluster, program, dist, perturbation, *, dynamics=None,
            observer=None, **kw):
    """The engine oracle's run (an observer changes no timing)."""
    emulator = ClusterEmulator(cluster, program, perturbation, dynamics=dynamics)
    return engine_run(emulator, dist, **kw)


def _fallbacks(counters, prefix="sim"):
    return sum(
        n for k, n in counters.items() if k.startswith(f"{prefix}/fallback/")
    )


def _assert_runs_accounted(counters):
    """Every 1-D run is plan-served or a counted fallback."""
    assert counters.get("sim/runs", 0) == (
        counters.get("sim/plan_runs", 0) + _fallbacks(counters)
    )


def _assert_twod_runs_accounted(counters):
    """Every 2-D run is plan-served or a counted fallback."""
    assert counters["sim/twod/runs"] == (
        counters.get("sim/twod/plan_runs", 0) + _fallbacks(counters, "sim/twod")
    )


def _assert_batch_accounted(counters):
    """Every engine-run batch candidate is a counted fallback."""
    assert counters["sim/batch/fallbacks"] == _fallbacks(counters)


def _assert_identical(a, b):
    assert a.total_seconds == b.total_seconds
    assert a.per_node_seconds == b.per_node_seconds
    assert a.iteration_ends == b.iteration_ends
    assert a.fast_forwarded == b.fast_forwarded


def _small_memory(cluster):
    """``cluster`` with 2 MiB nodes: they stream their arrays from disk
    in several blocks per tile."""
    return cluster.with_nodes(
        [node.with_(memory_bytes=mib(2)) for node in cluster.nodes],
        name=f"{cluster.name}-2MiB",
    )


def _live_plan(cluster, program, perturbation):
    """The configuration's plan, asserted live: no self-check mismatch,
    comm change or varying stage-execution count retired it."""
    plan = plan_sim.get_emulation_plan(
        cluster, program, perturbation
    )
    assert plan.dead is None
    _assert_kept_packed(plan)
    return plan


def _assert_kept_packed(plan):
    """Every tape a plan keeps is stored packed."""
    assert len(plan._tapes)
    for _key, tape in plan._tapes.items():
        assert tape.ops.dtype == executor_mod._OP_DTYPE


def _assert_packs_exactly(tape):
    """A fresh tape holds its lowering's op list, every field a Python
    ``int`` (``x`` a ``float``, so no numpy scalar reaches a walk), and
    packing it changes no op."""
    assert isinstance(tape.ops, list)
    fresh = tape.iterations()
    for ops in fresh:
        for kind, arg, x, b, rows in ops:
            assert type(x) is float
            assert {type(kind), type(arg), type(b), type(rows)} == {int}
    tape.pack()
    assert tape.ops.dtype == executor_mod._OP_DTYPE
    assert tape.iterations() == fresh


@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(sorted(APPS)),
    config=st.sampled_from(["DC", "IO", "HY1", "HY2"]),
    seed=st.integers(0, 2**16),
    one_row=st.integers(0, 7),
    prefetch=st.booleans(),
    iterations=st.sampled_from([PROBE + 1, 3 * PROBE]),
    noisy=st.booleans(),
    batch=st.sampled_from([1, 3]),
)
def test_replay_matches_engine(app, config, seed, one_row, prefetch,
                               iterations, noisy, batch):
    cluster = table1_configs()[config]
    program = _program(app, prefetch, iterations)
    P = cluster.n_nodes
    dists = [
        _layout(P, program.n_rows, seed + b, (one_row + b) % P)
        for b in range(batch)
    ]
    pert = NOISY if noisy else DETERMINISTIC
    rec = Recorder()
    batched = emulate_many(
        cluster, program, dists, perturbation=pert, run_cache=False,
        telemetry=rec,
    )
    assert rec.counters["sim/batch/plan_runs"] == batch
    _assert_batch_accounted(rec.counters)
    _live_plan(cluster, program, pert)
    for dist, got in zip(dists, batched):
        single = emulate(
            cluster, program, dist, perturbation=pert, run_cache=False
        )
        _assert_identical(got, single)
        ref = _engine(cluster, program, dist, pert)
        if noisy:
            # Full-length replay: the engine's result, bit for bit.
            _assert_identical(got, ref)
            continue
        # Probe replayed exactly, the tail extrapolated closed-form.
        assert got.fast_forwarded
        for ends, ref_ends in zip(got.iteration_ends, ref.iteration_ends):
            assert ends[:PROBE] == ref_ends[:PROBE]
            np.testing.assert_allclose(ends, ref_ends, rtol=1e-9, atol=0)


@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(sorted(APPS)),
    config=st.sampled_from(["DC", "IO", "HY1", "HY2"]),
    seed=st.integers(0, 2**16),
    prefetch=st.booleans(),
    scenario=st.sampled_from(["drift", "load-spike", "node-loss", "disk-fade"]),
    start=st.integers(0, 12),
    offset=st.integers(0, 10),
    iterations=st.sampled_from([1, 3, PROBE, PROBE + 1, 2 * PROBE]),
    noisy=st.booleans(),
    background_load=st.sampled_from([0.0, 0.2]),
    batch=st.sampled_from([1, 3]),
    out_of_core=st.booleans(),
)
def test_dynamic_replay_matches_engine(app, config, seed, prefetch, scenario,
                                       start, offset, iterations, noisy,
                                       background_load, batch, out_of_core):
    """Dynamics, offset segments, background load and short runs are
    plan-served, every iteration replayed: the engine's result, bit for
    bit."""
    cluster = table1_configs()[config]
    if out_of_core:
        cluster = _small_memory(cluster)
    program = _program(app, prefetch, 2 * PROBE)
    P = cluster.n_nodes
    spec = dynamics_scenario(scenario, P, start=start)
    pert = (NOISY if noisy else DETERMINISTIC).without(
        background_load=background_load
    )
    kw = dict(
        perturbation=pert, dynamics=spec, iterations=iterations,
        iteration_offset=offset, run_cache=False,
    )
    dists = [_layout(P, program.n_rows, seed + b, b % P) for b in range(batch)]
    brec, rec = Recorder(), Recorder()
    batched = emulate_many(cluster, program, dists, telemetry=brec, **kw)
    singles = [emulate(cluster, program, d, telemetry=rec, **kw) for d in dists]
    assert brec.counters["sim/batch/plan_runs"] == batch
    assert rec.counters["sim/plan_runs"] == batch
    _assert_batch_accounted(brec.counters)
    _assert_runs_accounted(rec.counters)
    assert not _fallbacks(brec.counters) + _fallbacks(rec.counters)
    _live_plan(cluster, program, pert)
    for dist, got, single in zip(dists, batched, singles):
        _assert_identical(got, single)
        ref = _engine(
            cluster, program, dist, pert, dynamics=spec,
            iterations=iterations, iteration_offset=offset,
        )
        _assert_identical(got, ref)


def _assert_lowering_exact(emulator, dist, n_iter, *, io_mode="auto",
                           offset=0, observe=()):
    """Every rank's tape, lowered as the emulator lowers it (the first
    iteration reused), equals :func:`lower_in_full`'s: the same packed
    ops, bounds, bases, repeat flag and record templates (``observe``:
    the op kinds marked), and packs op for op
    (:func:`_assert_packs_exactly`)."""
    P = emulator.cluster.n_nodes
    instrumented, io_override = executor_mod._resolve_io_mode(io_mode)
    twod = isinstance(emulator, TwoDEmulator)
    prefetch = (
        False if twod
        else executor_mod._streaming_style(emulator.program, io_override)
    )
    channels, full_channels = {}, {}
    tapes = emulator._lower_tapes(
        range(P), dist, n_iter, prefetch,
        lambda key: channels.setdefault(key, len(channels)),
        offset=offset, instrumented=instrumented, observe=observe,
    )
    channel = lambda key: full_channels.setdefault(key, len(full_channels))  # noqa: E731
    if twod:
        lowerings = [
            _Lowering2D(emulator, rank, dist, instrumented, channel, observe)
            for rank in range(P)
        ]
    else:
        memory = emulator._plans(range(P), dist.counts, instrumented)
        lowerings = [
            executor_mod._Lowering(
                emulator, rank, *dist.rows_of(rank), memory[rank],
                prefetch and not instrumented, channel, observe,
            )
            for rank in range(P)
        ]
    for tape, lowering in zip(tapes, lowerings):
        full = lower_in_full(lowering, n_iter, offset)
        _assert_packs_exactly(tape)
        full.pack()
        assert tape.ops.tobytes() == full.ops.tobytes()
        assert tape.bounds == full.bounds
        assert tape.bases.shape == full.bases.shape
        assert tape.bases.tobytes() == full.bases.tobytes()
        assert tape.repeats == full.repeats
        assert tape.records == full.records
    assert channels == full_channels


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(["jacobi", "cg", "lanczos", "rna", "multigrid"]),
    config=st.sampled_from(["DC", "IO", "HY1", "HY2"]),
    seed=st.integers(0, 2**16),
    io_mode=st.sampled_from(["auto", "sync", "prefetch", "instrumented"]),
    prefetching=st.booleans(),
    observe=st.sets(st.sampled_from(sorted(ALL_OPS))),
    offset=st.integers(0, 10),
    iterations=st.integers(1, 40),
    out_of_core=st.booleans(),
    profiled=st.booleans(),
)
def test_lowering_reuses_first_iteration_exactly(app, config, seed, io_mode,
                                                 prefetching, observe, offset,
                                                 iterations, out_of_core,
                                                 profiled):
    """A repeatable program lowers its first iteration only and re-serves
    the disk ops of every later one: whatever the app, streaming style,
    instrumentation, observation, offset, run length and node memory,
    each rank's tape is the one a full lowering of every iteration
    makes, byte for byte.  A profiled program lowers every iteration."""
    cluster = table1_configs()[config]
    if out_of_core:
        cluster = _small_memory(cluster)
    application = application_by_name(app, SCALE)
    program = application.prefetching() if prefetching else application.structure
    program = program.with_iterations(iterations)
    if profiled:
        program = program.with_iteration_profile(
            1.0 + 0.5 * (np.arange(iterations) % 3)
        )
    dist = _layout(cluster.n_nodes, program.n_rows, seed, seed % cluster.n_nodes)
    _assert_lowering_exact(
        ClusterEmulator(cluster, program), dist, iterations, io_mode=io_mode,
        offset=offset, observe=observe,
    )


def test_replay_lowers_every_missing_tape_in_one_call(monkeypatch):
    """A replay whose every rank misses the tape LRU lowers them all in
    one ``_lower_tapes`` call (one memory-placement pass)."""
    cluster = table1_configs()["HY1"]
    program = _program("cg", False, PROBE + 1)
    P = cluster.n_nodes
    # A plan of its own: its tape LRU holds only what this test lowers.
    plan = plan_sim.EmulationPlan(
        ClusterEmulator(cluster, program, NOISY, dynamics=False)
    )
    first = block(cluster, program.n_rows)
    assert plan.replay(first, PROBE + 1) is not None
    calls = []
    lower = ClusterEmulator._lower_tapes

    def counting(self, ranks, *args, **kwargs):
        calls.append(list(ranks))
        return lower(self, ranks, *args, **kwargs)

    monkeypatch.setattr(ClusterEmulator, "_lower_tapes", counting)
    misses = plan.tape_misses
    # Every rank's row count differs from the block layout's.
    counts = list(first.counts)
    counts[0] += P - 1
    second = GenBlock(tuple(counts[:1] + [c - 1 for c in counts[1:]]))
    got = plan.replay(second, PROBE + 1)
    assert plan.dead is None
    assert calls == [list(range(P))]
    assert plan.tape_misses == misses + P
    ref = _engine(cluster, program, second, NOISY)
    assert got == ref.iteration_ends


def test_first_replay_unpacks_each_tape_once(monkeypatch):
    """A fresh plan's first replay walks the tapes its self-check
    unpacked: one ``_Tape.iterations`` call per rank, not two; a later
    replay unpacks the kept tapes once more."""
    cluster = table1_configs()["HY1"]
    program = _program("cg", False, PROBE)
    P = cluster.n_nodes
    plan = plan_sim.EmulationPlan(
        ClusterEmulator(cluster, program, NOISY, dynamics=False)
    )
    calls = []
    unpack = executor_mod._Tape.iterations

    def counting(self):
        calls.append(self)
        return unpack(self)

    monkeypatch.setattr(executor_mod._Tape, "iterations", counting)
    dist = block(cluster, program.n_rows)
    got = plan.replay(dist, PROBE)
    assert plan.dead is None
    assert len(calls) == P
    assert plan.replay(dist, PROBE) == got
    assert len(calls) == 2 * P
    monkeypatch.undo()
    assert got == _engine(cluster, program, dist, NOISY).iteration_ends


def test_first_replay_walks_once(monkeypatch):
    """A fresh plan's first replay is one walk: the compile's self-check
    and the run's answer share it, for runs shorter and longer than the
    probe window alike."""
    cluster = table1_configs()["HY1"]
    calls = []
    walk = plan_sim.EmulationPlan._walk

    def counting(self, tapes, iters, n_iter, *factors):
        calls.append(n_iter)
        return walk(self, tapes, iters, n_iter, *factors)

    monkeypatch.setattr(plan_sim.EmulationPlan, "_walk", counting)
    for n_iter in (PROBE - 2, 2 * PROBE):
        program = _program("cg", False, n_iter)
        plan = plan_sim.EmulationPlan(
            ClusterEmulator(cluster, program, NOISY, dynamics=False)
        )
        dist = block(cluster, program.n_rows)
        calls.clear()
        got = plan.replay(dist, n_iter)
        assert plan.dead is None
        assert calls == [max(PROBE, n_iter)]
        assert all(len(ends) == n_iter for ends in got)
        assert got == _engine(cluster, program, dist, NOISY).iteration_ends


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(sorted(APPS)),
    config=st.sampled_from(["DC", "IO", "HY1", "HY2"]),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 2 * PROBE),
    extra=st.integers(0, 2 * PROBE),
    noisy=st.booleans(),
    background_load=st.sampled_from([0.0, 0.2]),
    scenario=st.sampled_from([None, "drift", "load-spike", "disk-fade"]),
    offset=st.integers(0, 10),
)
def test_first_replay_prefix_equals_shorter_replay(app, config, seed, k,
                                                   extra, noisy,
                                                   background_load, scenario,
                                                   offset):
    """On fresh plans, the first ``k`` ends of an ``m``-iteration replay
    equal a ``k``-iteration replay: the walk is causal and every factor
    draw is prefix-stable, which is what lets the first run answer from
    its self-check's walk."""
    cluster = table1_configs()[config]
    m = k + extra
    program = _program(app, False, m)
    P = cluster.n_nodes
    pert = (NOISY if noisy else DETERMINISTIC).without(
        background_load=background_load
    )
    spec = dynamics_scenario(scenario, P, start=2) if scenario else None
    dist = _layout(P, program.n_rows, seed, seed % P)

    def fresh():
        return plan_sim.EmulationPlan(
            ClusterEmulator(cluster, program, pert, dynamics=False)
        )

    long_plan = fresh()
    long_ends = long_plan.replay(dist, m, spec, offset)
    short_ends = fresh().replay(dist, k, spec, offset)
    assert long_ends is not None and short_ends is not None
    assert [ends[:k] for ends in long_ends] == short_ends
    # A compiled plan's own replay of k iterations agrees too.
    assert long_plan.replay(dist, k, spec, offset) == short_ends


@settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(
        ["jacobi", "cg", "lanczos", "rna", "multigrid", "jacobi2d"]
    ),
    config=st.sampled_from(["DC", "IO", "HY1", "HY2"]),
    seed=st.integers(0, 2**16),
    io_mode=st.sampled_from(executor_mod.IO_MODES),
    iterations=st.integers(1, 12),
    offset=st.integers(0, 10),
    scenario=st.sampled_from(
        [None, "drift", "load-spike", "node-loss", "disk-fade"]
    ),
    noisy=st.booleans(),
    observed=st.one_of(
        st.none(), st.sets(st.sampled_from(sorted(ALL_OPS)), min_size=1)
    ),
)
def test_event_loop_matches_generator_engine(workload, config, seed, io_mode,
                                             iterations, offset, scenario,
                                             noisy, observed):
    """The library's event engine, one flat loop over the tapes
    (``_run_tapes``), is the generator engine of
    :mod:`tests.emulator_reference`: whatever the app or 2-D Jacobi,
    cluster, layout, ``io_mode``, run length, offset, dynamics, noise
    and observer, the totals and iteration ends are equal bit for bit.
    An observer that reads some op kinds (a ``HookRegistry``) gets
    exactly the oracle's full record stream filtered to those kinds, in
    the same order."""
    cluster = table1_configs()[config]
    P = cluster.n_nodes
    pert = NOISY if noisy else DETERMINISTIC
    dynamics = (
        dynamics_scenario(scenario, P, start=seed % 12) if scenario else False
    )
    instrumented, io_override = executor_mod._resolve_io_mode(io_mode)
    if workload == "jacobi2d":
        # 32 MiB nodes hold an 8192^2 grid's tiles only out of core.
        side = 8192 if seed % 2 else 1024
        spec = Jacobi2DSpec(n_rows=side, n_cols=side, iterations=iterations)
        shapes = factor_pairs(P)
        dist = block2d(side, side, shapes[seed % len(shapes)])
        emulator = TwoDEmulator(cluster, spec, pert, dynamics=dynamics)
        prefetch = False
    else:
        application = application_by_name(workload, SCALE)
        program = (
            application.prefetching() if seed % 2 else application.structure
        ).with_iterations(iterations)
        dist = _layout(P, program.n_rows, seed, seed % P)
        emulator = ClusterEmulator(cluster, program, pert, dynamics=dynamics)
        prefetch = executor_mod._streaming_style(program, io_override)
    full = TraceCollector() if observed is not None else None
    ref = engine_run(
        emulator, dist, iterations=iterations, io_mode=io_mode,
        iteration_offset=offset, observer=full,
    )
    seen, hooks = [], None
    if observed is not None:
        hooks = HookRegistry()
        for kind in observed:
            hooks.register(kind, seen.append)
    got = emulator._engine_run(
        dist, iterations, instrumented=instrumented, prefetch=prefetch,
        offset=offset, observer=hooks,
    )
    assert got.total_seconds == ref.total_seconds
    assert got.iteration_ends == ref.iteration_ends
    # Dynamics multipliers are numpy scalars; the clocks stay floats.
    assert {type(e) for ends in got.iteration_ends for e in ends} == {float}
    if observed is not None:
        assert seen == [r for r in full.records if r.op in observed]


def test_disk_fade_scales_io_and_prefetch_ops():
    """An out-of-core prefetching run under disk fade: the faded ranks'
    tapes hold real ``io`` and ``prefetch_issue`` ops, the fade slows
    those ranks, and the replay still equals the engine bit for bit."""
    cluster = _small_memory(table1_configs()["IO"])
    program = _program("jacobi", True, 3 * PROBE)
    spec = dynamics_scenario("disk-fade", cluster.n_nodes, start=1)
    dist = block(cluster, program.n_rows)
    rec = Recorder()
    faded = emulate(
        cluster, program, dist, perturbation=DETERMINISTIC, dynamics=spec,
        run_cache=False, telemetry=rec,
    )
    assert rec.counters["sim/plan_runs"] == 1
    _assert_runs_accounted(rec.counters)
    static = emulate(
        cluster, program, dist, perturbation=DETERMINISTIC, run_cache=False
    )
    plan = _live_plan(cluster, program, DETERMINISTIC)
    for deg in spec.disk_degradation:
        tape = plan._tapes.get(plan._tape_key(deg.node, dist))
        kinds = set(tape.ops["kind"].tolist())
        assert {plan_sim._IO, plan_sim._PF_ISSUE} <= kinds
        assert faded.per_node_seconds[deg.node] > static.per_node_seconds[deg.node]
    ref = _engine(
        cluster, program, dist, DETERMINISTIC, dynamics=spec
    )
    _assert_identical(faded, ref)


def test_io_mode_overrides_replay_their_own_style():
    """Plans are keyed by streaming style: an out-of-core prefetching
    program run with ``io_mode="sync"`` replays sync tapes from its own
    plan, and every style equals the engine bit for bit."""
    cluster = _small_memory(table1_configs()["IO"])
    program = _program("jacobi", True, 2 * PROBE)
    dist = block(cluster, program.n_rows)
    results = {}
    for io_mode in ("auto", "sync", "prefetch"):
        rec = Recorder()
        results[io_mode] = emulate(
            cluster, program, dist, perturbation=NOISY, io_mode=io_mode,
            run_cache=False, telemetry=rec,
        )
        assert rec.counters["sim/plan_runs"] == 1
        _assert_runs_accounted(rec.counters)
        ref = _engine(cluster, program, dist, NOISY, io_mode=io_mode)
        _assert_identical(results[io_mode], ref)
    _assert_identical(results["auto"], results["prefetch"])
    assert results["sync"].total_seconds != results["prefetch"].total_seconds
    sync, prefetch = (
        plan_sim.get_emulation_plan(
            cluster, program, NOISY, style
        )
        for style in (False, True)
    )
    assert sync is not prefetch
    assert not sync.prefetch and prefetch.prefetch
    kinds = sync._tapes.get(sync._tape_key(0, dist)).ops["kind"].tolist()
    assert plan_sim._PF_ISSUE not in kinds


def test_forced_dynamics_mismatch_retires_the_plan(monkeypatch):
    """One perturbed element of the vector dynamics multipliers makes
    the replay disagree with the engine probe, which runs under the
    first run's own factors: the self-check retires the plan and every
    candidate still gets the engine's result."""
    real = DynamicsTimeline.compute_multipliers

    def skewed(self):
        factors = real(self)
        factors[:, 0] *= 2.0
        return factors

    monkeypatch.setattr(DynamicsTimeline, "compute_multipliers", skewed)
    cluster = dataclasses.replace(table1_configs()["HY1"], name="HY1-dyn-skewed")
    program = _program("jacobi", False, 2 * PROBE)
    spec = dynamics_scenario("drift", cluster.n_nodes, start=0)
    dists = [
        _layout(cluster.n_nodes, program.n_rows, seed, seed)
        for seed in range(2)
    ]
    rec = Recorder()
    got = emulate_many(
        cluster, program, dists, perturbation=NOISY, dynamics=spec,
        iteration_offset=3, run_cache=False, telemetry=rec,
    )
    plan = plan_sim.get_emulation_plan(
        cluster, program, NOISY
    )
    assert plan.dead is not None and plan.dead.startswith("self-check")
    assert rec.counters["sim/fallback/plan_dead"] == len(dists)
    assert rec.counters.get("sim/batch/plan_runs", 0) == 0
    _assert_batch_accounted(rec.counters)
    for dist, result in zip(dists, got):
        ref = _engine(
            cluster, program, dist, NOISY, dynamics=spec, iteration_offset=3
        )
        _assert_identical(result, ref)


def test_forced_noise_mismatch_retires_the_plan(monkeypatch):
    """One perturbed element of the vector noise draw makes the replay
    disagree with the engine probe: the self-check retires the plan and
    every candidate still gets the engine's result."""
    real = PerturbationModel.noise_factors

    def skewed(self, n):
        factors = real(self, n)
        factors[0] *= 2.0
        return factors

    monkeypatch.setattr(PerturbationModel, "noise_factors", skewed)
    # A cluster no other test compiles a plan for.
    cluster = dataclasses.replace(table1_configs()["HY1"], name="HY1-skewed")
    program = _program("jacobi", False, 2 * PROBE)
    dists = [
        _layout(cluster.n_nodes, program.n_rows, seed, seed)
        for seed in range(2)
    ]
    rec = Recorder()
    got = emulate_many(
        cluster, program, dists, perturbation=NOISY, run_cache=False,
        telemetry=rec,
    )
    plan = plan_sim.get_emulation_plan(
        cluster, program, NOISY
    )
    assert plan.dead is not None and plan.dead.startswith("self-check")
    assert rec.counters["sim/fallback/plan_dead"] == len(dists)
    assert rec.counters.get("sim/batch/plan_runs", 0) == 0
    _assert_batch_accounted(rec.counters)
    for dist, result in zip(dists, got):
        _assert_identical(result, _engine(cluster, program, dist, NOISY))


# -- plan-served and fallback reasons -------------------------------------------


def _jacobi_hy1(iterations=2 * PROBE):
    return table1_configs()["HY1"], _program("jacobi", False, iterations)


def _observer():
    cluster, program = _jacobi_hy1()
    return cluster, program, NOISY, {"observer": TraceCollector()}


def _instrumented():
    cluster, program = _jacobi_hy1()
    return cluster, program, NOISY, {"io_mode": "instrumented"}


def _dynamics():
    cluster, program = _jacobi_hy1()
    spec = dynamics_scenario("drift", cluster.n_nodes, start=2)
    return cluster, program, NOISY, {"dynamics": spec}


def _background_load():
    cluster, program = _jacobi_hy1()
    return cluster, program, NOISY.without(background_load=0.2), {}


def _iteration_profile():
    cluster, program = _jacobi_hy1()
    profile = np.linspace(1.0, 2.0, program.iterations)
    return cluster, program.with_iteration_profile(profile), NOISY, {}


def _io_mode():
    cluster, program = _jacobi_hy1()
    return cluster, program, NOISY, {"io_mode": "prefetch"}


def _offset():
    cluster, program = _jacobi_hy1()
    return cluster, program, NOISY, {"iteration_offset": 2}


def _short_run():
    cluster, program = _jacobi_hy1(iterations=PROBE)
    return cluster, program, NOISY, {}


def _plan_dead(monkeypatch):
    cluster, program = _jacobi_hy1()
    plan = plan_sim.get_emulation_plan(
        cluster, program, NOISY
    )
    monkeypatch.setattr(plan, "dead", "forced dead for test")
    return cluster, program, NOISY, {}


def _not_converged(monkeypatch):
    monkeypatch.setattr(
        executor_mod, "steady_deltas", lambda ends, policy: None
    )
    cluster, program = _jacobi_hy1()
    return cluster, program, DETERMINISTIC, {}


#: Runs the plan replays in full, every iteration, bit for bit.
SERVED = {
    "dynamics": _dynamics,
    "background_load": _background_load,
    "offset": _offset,
    "short_run": _short_run,
    "io_mode": _io_mode,
    "not_converged": _not_converged,
}

FALLBACKS = {
    "observer": _observer,
    "instrumented": _instrumented,
    "iteration_profile": _iteration_profile,
    "plan_dead": _plan_dead,
}


def _spy_tape_reads(monkeypatch) -> list:
    """Record, per ``_Tape.iterations`` call, whether the tape read was
    a fresh one (its lowering's op list) or a kept, packed one."""
    reads = []
    iterations = executor_mod._Tape.iterations

    def spy(self):
        reads.append(isinstance(self.ops, list))
        return iterations(self)

    monkeypatch.setattr(executor_mod._Tape, "iterations", spy)
    return reads


@pytest.mark.parametrize("case", sorted(SERVED))
def test_plan_served_run_is_engine_identical(case, monkeypatch):
    """Each served run equals the engine; the singles compile a fresh
    plan and walk fresh tapes first, and the batch then replays the
    tapes the plan kept, packed, to the same ends."""
    setup = SERVED[case]
    if case == "not_converged":
        cluster, program, pert, kw = setup(monkeypatch)
    else:
        cluster, program, pert, kw = setup()
    dists = [
        block(cluster, program.n_rows),
        _layout(cluster.n_nodes, program.n_rows, 7, 3),
    ]
    rec, brec = Recorder(), Recorder()
    reset_plan_cache()
    reads = _spy_tape_reads(monkeypatch)
    singles = [
        emulate(
            cluster, program, d, perturbation=pert, run_cache=False,
            telemetry=rec, **kw,
        )
        for d in dists
    ]
    assert reads[0]
    first_batch_read = len(reads)
    batched = emulate_many(
        cluster, program, dists, perturbation=pert, run_cache=False,
        telemetry=brec, **kw,
    )
    assert rec.counters["sim/plan_runs"] == len(dists)
    assert brec.counters["sim/batch/plan_runs"] == len(dists)
    _assert_runs_accounted(rec.counters)
    _assert_batch_accounted(brec.counters)
    assert not _fallbacks(rec.counters) + _fallbacks(brec.counters)
    batch_reads = reads[first_batch_read:]
    assert batch_reads and not any(batch_reads)
    style = True if kw.get("io_mode") == "prefetch" else None
    _assert_kept_packed(
        plan_sim.get_emulation_plan(cluster, program, pert, style)
    )
    for d, single, got in zip(dists, singles, batched):
        _assert_identical(got, single)
        _assert_identical(single, _engine(cluster, program, d, pert, **kw))


@pytest.mark.parametrize("reason", sorted(FALLBACKS))
def test_fallback_is_counted_and_engine_identical(reason, monkeypatch):
    """Each fallback is counted and equals the engine, and no tape an
    engine run lowers is ever packed."""
    setup = FALLBACKS[reason]
    if reason == "plan_dead":
        cluster, program, pert, kw = setup(monkeypatch)
    else:
        cluster, program, pert, kw = setup()
    packed = []
    monkeypatch.setattr(
        executor_mod._Tape, "pack", lambda tape: packed.append(tape)
    )
    dists = [
        block(cluster, program.n_rows),
        _layout(cluster.n_nodes, program.n_rows, 7, 3),
    ]
    rec = Recorder()
    singles = [
        emulate(
            cluster, program, d, perturbation=pert, run_cache=False,
            telemetry=rec, **kw,
        )
        for d in dists
    ]
    recorders = [rec]
    if "observer" not in kw:  # emulate_many takes no observer
        brec = Recorder()
        batched = emulate_many(
            cluster, program, dists, perturbation=pert, run_cache=False,
            telemetry=brec, **kw,
        )
        for a, b in zip(batched, singles):
            _assert_identical(a, b)
        assert brec.counters["sim/batch/fallbacks"] == len(dists)
        _assert_batch_accounted(brec.counters)
        recorders.append(brec)
    _assert_runs_accounted(rec.counters)
    for counters in (r.counters for r in recorders):
        assert counters[f"sim/fallback/{reason}"] == len(dists)
        assert _fallbacks(counters) == len(dists)
        assert "sim/plan_runs" not in counters
    assert packed == []
    for d, got in zip(dists, singles):
        ref = _engine(cluster, program, d, pert, **kw)
        _assert_identical(got, ref)


def test_totals_are_python_floats_on_every_route():
    """Dynamics multipliers are numpy scalars; every route still
    returns Python floats, so a result's ``repr`` and JSON do not
    depend on the route."""
    cluster = table1_configs()["HY1"]
    program = _program("jacobi", False, 8)
    spec = dynamics_scenario("drift", cluster.n_nodes, start=0)
    dist = block(cluster, program.n_rows)
    spec2d = Jacobi2DSpec(n_rows=400, n_cols=400, iterations=8)
    dist2d = GenBlock2D([200, 200], [100] * 4)
    rec = Recorder()
    result = emulate(
        cluster, program, dist, perturbation=NOISY, dynamics=spec,
        run_cache=False, telemetry=rec,
    )
    (batched,) = emulate_many(
        cluster, program, [dist], perturbation=NOISY, dynamics=spec,
        run_cache=False,
    )
    emulator = ClusterEmulator(cluster, program, NOISY, dynamics=spec)
    for got in (result, batched, engine_run(emulator, dist)):
        assert type(got.total_seconds) is float
        assert {type(x) for x in got.per_node_seconds} == {float}
    emulator2d = TwoDEmulator(cluster, spec2d, NOISY, dynamics=spec)
    total = emulator2d.run(dist2d, telemetry=rec)
    assert type(total) is float
    assert type(engine_run(emulator2d, dist2d).total_seconds) is float
    assert rec.counters["sim/plan_runs"] == 1
    assert rec.counters["sim/twod/plan_runs"] == 1
    _assert_runs_accounted(rec.counters)
    _assert_twod_runs_accounted(rec.counters)


def _bands(shares, total):
    return [int(c) for c in largest_remainder_round(np.asarray(shares), total, minimum=1)]


@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    P=st.sampled_from([4, 6, 8]),
    shape_index=st.integers(0, 3),
    side=st.sampled_from([256, 512]),
    row_shares=st.lists(st.floats(0.2, 1.0), min_size=8, max_size=8),
    col_shares=st.lists(st.floats(0.2, 1.0), min_size=8, max_size=8),
    memory=st.sampled_from([64 * 1024, 256 * 1024, mib(64)]),
    noisy=st.booleans(),
    background_load=st.sampled_from([0.0, 0.2]),
    scenario=st.sampled_from([None, "drift", "load-spike", "disk-fade"]),
    start=st.integers(0, 12),
    offset=st.integers(0, 10),
    iterations=st.integers(1, 40),
)
def test_twod_replay_matches_engine(P, shape_index, side, row_shares,
                                    col_shares, memory, noisy,
                                    background_load, scenario, start,
                                    offset, iterations):
    """2-D Jacobi tapes replay through the shared plan: whatever the
    grid, bands, node memory (tiles in core, or streamed from disk in
    chunks), noise, load, dynamics, offset and run length, a plan-
    served run equals the engine bit for bit, or, deterministic and
    stationary past the probe, extrapolates it within 1e-9."""
    base = table1_configs()["HY1"]
    cluster = base.with_nodes(
        [node.with_(memory_bytes=memory) for node in base.nodes[:P]],
        name=f"HY1-{P}-{memory}",
    )
    shapes = factor_pairs(P)
    rows, cols = shapes[shape_index % len(shapes)]
    dist = GenBlock2D(
        _bands(row_shares[:rows], side), _bands(col_shares[:cols], side)
    )
    spec = Jacobi2DSpec(n_rows=side, n_cols=side, iterations=iterations)
    pert = (NOISY if noisy else DETERMINISTIC).without(
        background_load=background_load
    )
    dynamics = dynamics_scenario(scenario, P, start=start) if scenario else False
    emulator = TwoDEmulator(cluster, spec, pert, dynamics=dynamics)
    _assert_lowering_exact(emulator, dist, iterations, offset=offset)
    rec = Recorder()
    got = emulator.run(dist, iteration_offset=offset, telemetry=rec)
    ref = engine_run(emulator, dist, iteration_offset=offset).total_seconds
    assert rec.counters["sim/twod/plan_runs"] == 1
    _assert_twod_runs_accounted(rec.counters)
    plan = emulator._emulation_plan(dist, False)
    assert plan.dead is None
    if rec.counters.get("sim/twod/fast_forwards"):
        assert not (noisy or background_load or scenario)
        assert iterations > PROBE
        assert abs(got - ref) <= 1e-9 * ref
    else:
        assert got == ref


# -- the CLI's paper-scale runs, against the engine -----------------------------


def _paper_2d_spec():
    """The 2-D spec ``repro search jacobi --scale 1.0 --twod`` builds."""
    program = application_by_name("jacobi", 1.0).structure
    return Jacobi2DSpec(
        n_rows=program.n_rows, n_cols=program.n_rows,
        iterations=program.iterations,
    )


def _assert_twod_plan_is_engine(cluster, spec, dist):
    emulator = TwoDEmulator(cluster, spec)
    rec = Recorder()
    got = emulator.run(dist, telemetry=rec)
    assert rec.counters["sim/twod/plan_runs"] == 1
    _assert_twod_runs_accounted(rec.counters)
    assert got == engine_run(emulator, dist).total_seconds


@pytest.mark.parametrize("config", ["IO", "HY1"])
def test_twod_search_winner_is_engine_identical(config):
    """``repro search jacobi --config C --scale 1.0 --twod all --verify``:
    the 32 MiB nodes stream their tiles from disk, and the verified
    winner's plan-served total is the engine's."""
    cluster = table1_configs()[config]
    spec = _paper_2d_spec()
    d0 = min(factor_pairs(cluster.n_nodes), key=lambda s: abs(s[0] - s[1]))
    model = build_2d_model(
        cluster, spec, block2d(spec.n_rows, spec.n_cols, d0)
    )
    best = TwoDLayoutSearch(model, algorithm="gbs").search(150).best
    _assert_twod_plan_is_engine(cluster, spec, best)


@pytest.mark.parametrize("shape", factor_pairs(8))
@pytest.mark.parametrize("config", ["IO", "HY1"])
def test_twod_paper_block_layout_is_engine_identical(config, shape):
    cluster = table1_configs()[config]
    spec = _paper_2d_spec()
    _assert_twod_plan_is_engine(
        cluster, spec, block2d(spec.n_rows, spec.n_cols, shape)
    )


@pytest.mark.parametrize(
    "scenario", ["drift", "load-spike", "node-loss", "disk-fade"]
)
def test_paper_scale_dynamic_run_is_engine_identical(scenario):
    """``repro emulate jacobi --config IO --scale 1.0 --iterations 30
    --dynamics S --dynamics-start 5``: the dynamic run replays I/O and
    prefetch ops, bit for bit the engine's."""
    cluster = table1_configs()["IO"]
    program = application_by_name("jacobi", 1.0).structure
    spec = dynamics_scenario(scenario, cluster.n_nodes, start=5)
    dist = block(cluster, program.n_rows)
    rec = Recorder()
    got = emulate(
        cluster, program, dist, iterations=30, dynamics=spec,
        run_cache=False, telemetry=rec,
    )
    assert rec.counters["sim/plan_runs"] == 1
    _assert_runs_accounted(rec.counters)
    _assert_identical(
        got, _engine(cluster, program, dist, None, dynamics=spec, iterations=30)
    )
