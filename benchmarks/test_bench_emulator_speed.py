"""Bench E1: emulated-run cost — the experiment harness's other half.

PRs 1-3 drove a MHETA evaluation to ~0.04 ms; every *emulated* ("Actual"
series) run still stepped all N iterations through the Python event
loop.  This benchmark measures the emulator fast path on a fig9-style
deterministic workload (Jacobi on HY1, paper scale, 100 iterations,
stochastic noise off, every iteration-invariant ground-truth effect on):

* full event-by-event simulation (``fast_forward=False``) vs the
  steady-state cycle fast-forward, interleaved so host noise hits both
  equally, over spectrum candidate distributions;
* the same comparison for the prefetching variant;
* cached ``emulate()`` hit throughput (the content-keyed run cache);
* the raw engine dispatch loop (ping-pong and delay-only microbench) —
  the hot-loop rewrite's per-event overhead.

It writes the machine-readable scoreboard ``BENCH_emulator_speed.json``
at the repo root.  The hard acceptance gate — enforced here *and* in
CI — is a >= 3x fast-forward speedup over full simulation of the same
workload; full simulation itself already carries the engine rewrite,
so the gate is conservative with respect to the seed emulator.

Equivalence is asserted alongside speed: every fast-forwarded result
must match its full simulation to <= 1e-9 relative.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.apps import JacobiApp
from repro.cluster import config_hy1
from repro.distribution import spectrum
from repro.parallel.cache import RunCache
from repro.sim import ClusterEmulator, PerturbationConfig, emulate, emulate_many
from repro.sim.engine import Delay, Engine, Recv, Send

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_emulator_speed.json"

#: Acceptance floor: steady-state fast-forward must beat full
#: event-by-event simulation of the same deterministic workload by at
#: least this factor.
REQUIRED_SPEEDUP = 3.0

#: The PR-4 fast-forward cost this machine recorded before the
#: compiled-plan path landed (BENCH_emulator_speed.json, frozen):
#: plan-served runs are measured against it.
PR4_FAST_FORWARD_MS = {"sync": 5.470, "prefetch": 5.387}

#: Acceptance floor for the batched plan path vs the frozen PR-4
#: figure (the CI gate; the issue targets >= 5x per-run and >= 10x
#: amortised, which this run records).
REQUIRED_BATCH_SPEEDUP = 3.0

#: Fast-forward must reproduce full simulation to this relative bound.
EQUIVALENCE_RTOL = 1e-9

#: Fig9-style deterministic ground truth: only the stochastic
#: computation noise is off; cache effects, OS read cache, sparse
#: weights and runtime overhead all stay on.
DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _setup(prefetch: bool):
    cluster = config_hy1()
    app = JacobiApp.paper()
    program = app.prefetching() if prefetch else app.structure
    candidates = []
    for p in spectrum(cluster, program, steps_per_leg=2):
        if p.distribution.counts not in [c.counts for c in candidates]:
            candidates.append(p.distribution)
    return cluster, program, candidates


def _max_rel_diff(full, fast) -> float:
    worst = abs(full.total_seconds - fast.total_seconds) / full.total_seconds
    for full_ends, fast_ends in zip(full.iteration_ends, fast.iteration_ends):
        fe = np.asarray(full_ends)
        se = np.asarray(fast_ends)
        worst = max(worst, float(np.max(np.abs(fe - se) / np.maximum(fe, 1e-300))))
    return worst


def _interleaved_runs(cluster, program, candidates, reps=3):
    """Interleave full-simulation and fast-forward runs per candidate,
    checking equivalence on the fly."""
    emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
    for d in candidates[:1]:  # warm bytecode/caches once
        emulator.run(d, fast_forward=True)
    spent = {"full": 0.0, "fast_forward": 0.0}
    worst_rel = 0.0
    runs = 0
    for _ in range(reps):
        for d in candidates:
            t0 = time.perf_counter()
            full = emulator.run(d, fast_forward=False)
            spent["full"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            fast = emulator.run(d, fast_forward=True)
            spent["fast_forward"] += time.perf_counter() - t0
            assert fast.fast_forwarded and not full.fast_forwarded
            worst_rel = max(worst_rel, _max_rel_diff(full, fast))
            runs += 1
    return {
        "runs": runs,
        "iterations_per_run": program.iterations,
        "full_ms_per_run": spent["full"] / runs * 1e3,
        "fast_forward_ms_per_run": spent["fast_forward"] / runs * 1e3,
        "speedup": spent["full"] / spent["fast_forward"],
        "max_rel_diff_vs_full": worst_rel,
    }


def _plan_runs(cluster, program, candidates, mode, reps=5):
    """Warm plan-served per-run cost plus the batched amortised cost,
    with a per-candidate equivalence check against full simulation."""
    emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
    emulator.run(candidates[0], fast_forward=True)  # compile the plan
    worst_rel = 0.0
    for d in candidates:
        full = emulator.run(d, fast_forward=False)
        fast = emulator.run(d, fast_forward=True)
        assert fast.fast_forwarded
        worst_rel = max(worst_rel, _max_rel_diff(full, fast))
    t0 = time.perf_counter()
    for _ in range(reps):
        for d in candidates:
            emulator.run(d, fast_forward=True)
    per_run_ms = (
        (time.perf_counter() - t0) / (reps * len(candidates)) * 1e3
    )
    t0 = time.perf_counter()
    for _ in range(reps):
        batch = emulate_many(
            cluster, program, candidates,
            perturbation=DETERMINISTIC, run_cache=False,
        )
    batched_ms = (
        (time.perf_counter() - t0) / (reps * len(candidates)) * 1e3
    )
    assert all(r.fast_forwarded for r in batch)
    frozen = PR4_FAST_FORWARD_MS[mode]
    return {
        "candidates": len(candidates),
        "plan_ms_per_run": per_run_ms,
        "batched_ms_per_candidate": batched_ms,
        "pr4_fast_forward_ms": frozen,
        "speedup_vs_pr4": frozen / per_run_ms,
        "batched_speedup_vs_pr4": frozen / batched_ms,
        "max_rel_diff_vs_full": worst_rel,
    }


def _cached_emulate_throughput(cluster, program, candidates, reps=20):
    """Hit-path throughput of the content-keyed run cache."""
    cache = RunCache()
    for d in candidates:  # populate
        emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
    t0 = time.perf_counter()
    for _ in range(reps):
        for d in candidates:
            emulate(
                cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
            )
    seconds = time.perf_counter() - t0
    lookups = reps * len(candidates)
    return {
        "hit_ms": seconds / lookups * 1e3,
        "hits_per_second": lookups / seconds,
        "lookups": lookups,
        "stats": cache.stats,
    }


def _engine_microbench(n=20000, rounds=3):
    """Per-event dispatch cost of the rewritten engine core."""

    def pingpong():
        def a():
            for i in range(n):
                yield Delay(1e-6)
                yield Send(1, "m", transfer=1e-6)
                yield Recv(1, "r")

        def b():
            for i in range(n):
                yield Recv(0, "m")
                yield Delay(1e-6)
                yield Send(0, "r", transfer=1e-6)

        engine = Engine()
        engine.add_process(a(), 0)
        engine.add_process(b(), 1)
        return engine

    def delays():
        def p():
            for i in range(n):
                yield Delay(1e-6)

        engine = Engine()
        for node in range(4):
            engine.add_process(p(), node)
        return engine

    out = {}
    for label, make in (("pingpong", pingpong), ("delays", delays)):
        times = []
        for _ in range(rounds):
            engine = make()
            t0 = time.perf_counter()
            engine.run()
            times.append(time.perf_counter() - t0)
        out[label] = {"ms": min(times) * 1e3, "loop_iterations": n}
    return out


def test_emulator_fast_path_speed(benchmark, save_result):
    cluster, program, candidates = _setup(prefetch=False)
    _, program_pf, candidates_pf = _setup(prefetch=True)

    sync_rows = benchmark.pedantic(
        _interleaved_runs,
        args=(cluster, program, candidates),
        rounds=1,
        iterations=1,
    )
    prefetch_rows = _interleaved_runs(cluster, program_pf, candidates_pf)
    plan_sync = _plan_runs(cluster, program, candidates, "sync")
    plan_prefetch = _plan_runs(cluster, program_pf, candidates_pf, "prefetch")
    cached = _cached_emulate_throughput(cluster, program, candidates)
    engine = _engine_microbench()

    payload = {
        "benchmark": "emulator_speed",
        "workload": (
            "fig9-style deterministic jacobi on HY1, paper scale "
            f"({program.iterations} iterations), spectrum candidates"
        ),
        "python": platform.python_version(),
        "sync": sync_rows,
        "prefetch": prefetch_rows,
        "plan_sync": plan_sync,
        "plan_prefetch": plan_prefetch,
        "cached_emulate": cached,
        "engine_microbench": engine,
        "speedup": {
            "fast_forward_vs_full_sync": sync_rows["speedup"],
            "fast_forward_vs_full_prefetch": prefetch_rows["speedup"],
            "plan_vs_pr4_sync": plan_sync["speedup_vs_pr4"],
            "plan_vs_pr4_prefetch": plan_prefetch["speedup_vs_pr4"],
            "batched_vs_pr4_sync": plan_sync["batched_speedup_vs_pr4"],
            "batched_vs_pr4_prefetch": plan_prefetch[
                "batched_speedup_vs_pr4"
            ],
            "required": REQUIRED_SPEEDUP,
            "required_batched_vs_pr4": REQUIRED_BATCH_SPEEDUP,
        },
        "equivalence": {
            "max_rel_diff": max(
                sync_rows["max_rel_diff_vs_full"],
                prefetch_rows["max_rel_diff_vs_full"],
                plan_sync["max_rel_diff_vs_full"],
                plan_prefetch["max_rel_diff_vs_full"],
            ),
            "required_rtol": EQUIVALENCE_RTOL,
        },
    }
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        "Emulator fast-path speed (fig9-style deterministic jacobi on HY1, "
        f"{program.iterations} iterations, paper scale):"
    ]
    for label, rows in (("sync", sync_rows), ("prefetch", prefetch_rows)):
        lines.append(
            f"  {label:9s} full {rows['full_ms_per_run']:7.1f} ms/run -> "
            f"fast-forward {rows['fast_forward_ms_per_run']:6.1f} ms/run "
            f"({rows['speedup']:.1f}x, max rel diff "
            f"{rows['max_rel_diff_vs_full']:.1e})"
        )
    for label, rows in (("sync", plan_sync), ("prefetch", plan_prefetch)):
        lines.append(
            f"  plan {label:9s} {rows['plan_ms_per_run']:.3f} ms/run "
            f"({rows['speedup_vs_pr4']:.1f}x vs PR-4 "
            f"{rows['pr4_fast_forward_ms']:.2f} ms), batched "
            f"{rows['batched_ms_per_candidate']:.3f} ms/candidate "
            f"({rows['batched_speedup_vs_pr4']:.1f}x)"
        )
    lines.append(
        f"  run-cache hit: {cached['hit_ms']:.3f} ms "
        f"({cached['hits_per_second']:,.0f} hits/s)"
    )
    lines.append(
        f"  engine dispatch: pingpong {engine['pingpong']['ms']:.0f} ms, "
        f"delays {engine['delays']['ms']:.0f} ms per "
        f"{engine['pingpong']['loop_iterations']} loop iterations"
    )
    lines.append(
        f"  gate: fast-forward >= {REQUIRED_SPEEDUP:.0f}x required; "
        f"equivalence <= {EQUIVALENCE_RTOL:.0e} relative"
    )
    save_result("emulator_speed", "\n".join(lines))

    # Equivalence is part of the contract, not just speed.
    assert payload["equivalence"]["max_rel_diff"] <= EQUIVALENCE_RTOL
    # The hard acceptance gates, mirrored in CI.
    for label, rows in (("sync", sync_rows), ("prefetch", prefetch_rows)):
        assert rows["speedup"] >= REQUIRED_SPEEDUP, (
            f"{label} fast-forward speedup {rows['speedup']:.2f}x below "
            f"required {REQUIRED_SPEEDUP}x"
        )
    for label, rows in (("sync", plan_sync), ("prefetch", plan_prefetch)):
        assert rows["batched_speedup_vs_pr4"] >= REQUIRED_BATCH_SPEEDUP, (
            f"{label} batched emulation {rows['batched_speedup_vs_pr4']:.2f}x "
            f"below required {REQUIRED_BATCH_SPEEDUP}x vs the frozen PR-4 "
            "fast-forward figure"
        )


def test_cached_emulate_is_effectively_free(benchmark):
    """A run-cache hit must cost microseconds, not emulator time."""
    cluster, program, candidates = _setup(prefetch=False)
    cache = RunCache()
    d = candidates[0]
    emulate(cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache)

    def hit():
        return emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )

    result = benchmark(hit)
    assert result.total_seconds > 0
    assert benchmark.stats.stats.mean * 1e3 < 5.0  # << one emulated run
