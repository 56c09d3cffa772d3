"""Bench N1: MHETA evaluation cost (paper: ~5.4 ms per distribution).

Two implementations score the same model inputs: the ``scalar``
reference (the seed implementation, per-tile Python loops, kept as the
test oracle ``tests/model_reference.py``) and the model's vectorised
``numpy`` path (batched stage tables, max-plus section matrices,
persistent ``(node, rows)`` table cache).  This benchmark measures both —
*interleaved*, alternating kernels within each repetition so host noise
hits them equally — and writes the machine-readable scoreboard
``BENCH_model_speed.json`` at the repo root:

* ``evaluations_per_second`` for each kernel/cache configuration,
  through single ``predict(d)`` calls (for the numpy kernel, a batch of
  one) and through ``predict(batch=True)`` over the whole population,
* wall-time of a batched-GBS search per kernel,
* the headline speedups (numpy, cached — the default configuration —
  over the scalar seed behaviour); the *search-level* speedup is the
  hard acceptance gate, asserted >= 3x.
"""

from __future__ import annotations

import itertools
import json
import platform
import time
from pathlib import Path

from repro.cluster import config_hy1
from repro.core.model import MhetaModel
from repro.distribution import block, spectrum
from repro.experiments import build_model, model_evaluation_timing
from repro.instrument.collect import collect_inputs
from repro.search import GeneralizedBinarySearch
from repro.apps import JacobiApp
from tests.model_reference import ReferenceModel

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_model_speed.json"

#: Acceptance floor: the default numpy kernel must carry a
#: ``predict``-driven search at least this much faster than the
#: scalar seed behaviour (uncached reference path).
REQUIRED_SPEEDUP = 3.0

#: (model class, keyword) configurations measured.  ``scalar-uncached``
#: is the seed behaviour; ``numpy-cached`` is the default.
CONFIGS = {
    "scalar-uncached": (ReferenceModel, dict(table_cache=0)),
    "scalar-cached": (ReferenceModel, {}),
    "numpy-uncached": (MhetaModel, dict(table_cache=0)),
    "numpy-cached": (MhetaModel, {}),
}


def _setup():
    cluster = config_hy1()
    program = JacobiApp.paper().structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    models = {
        label: model_cls(program, cluster, inputs, **kwargs)
        for label, (model_cls, kwargs) in CONFIGS.items()
    }
    candidates = [
        p.distribution for p in spectrum(cluster, program, steps_per_leg=4)
    ]
    return cluster, program, models, candidates


def _interleaved_throughput(models, candidates, reps=30):
    """Per-config evaluations/second of single ``predict(d)`` calls (a
    batch of one for the numpy kernel), alternating configs each rep so
    a noisy host perturbs every kernel equally."""
    for model in models.values():  # warm caches and bytecode
        for d in candidates:
            model.predict(d)
    spent = {label: 0.0 for label in models}
    for _ in range(reps):
        for label, model in models.items():
            t0 = time.perf_counter()
            for d in candidates:
                model.predict(d)
            spent[label] += time.perf_counter() - t0
    evaluations = reps * len(candidates)
    return {
        label: {
            "evaluations_per_second": evaluations / seconds,
            "mean_ms": seconds / evaluations * 1e3,
            "evaluations": evaluations,
        }
        for label, seconds in spent.items()
    }


def _batched_throughput(models, candidates, reps=30, burst=3):
    """Per-config evaluations/second through ``predict(batch=True)``
    (the scalar configs loop internally — the honest baseline for the
    vectorized pass), interleaved like the single-call loop.

    Each round times a short *burst* of consecutive calls per config:
    a single interleaved call mostly measures the cache refill forced
    by the other configs, which for a kernel an order of
    magnitude faster than the eviction interval drowns the kernel
    itself.  Search loops call the kernel back to back, so the burst
    is the representative shape; interleaving between bursts still
    spreads host noise across configs."""
    for model in models.values():  # warm caches and bytecode
        model.predict(candidates, batch=True)
    spent = {label: 0.0 for label in models}
    for _ in range(reps):
        for label, model in models.items():
            t0 = time.perf_counter()
            for _ in range(burst):
                model.predict(candidates, batch=True)
            spent[label] += time.perf_counter() - t0
    evaluations = reps * burst * len(candidates)
    return {
        label: {
            "evaluations_per_second": evaluations / seconds,
            "mean_ms": seconds / evaluations * 1e3,
            "evaluations": evaluations,
            "batch_size": len(candidates),
        }
        for label, seconds in spent.items()
    }


def _telemetry_overhead(model, candidates, reps=60):
    """Relative cost of passing a *disabled* recorder versus no
    telemetry at all, on the default model's single-call hot path (a
    batch of one).

    Interleaved A/B like the kernel loops; the issue's acceptance gate
    is <= 5% overhead, i.e. a disabled recorder must be near-free.
    """
    from repro.obs import Recorder

    disabled = Recorder(enabled=False)
    for d in candidates:  # warm
        model.predict(d)
        model.predict(d, telemetry=disabled)
    bare = 0.0
    carried = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        for d in candidates:
            model.predict(d)
        bare += time.perf_counter() - t0
        t0 = time.perf_counter()
        for d in candidates:
            model.predict(d, telemetry=disabled)
        carried += time.perf_counter() - t0
    pct = (carried / bare - 1.0) * 100.0
    return {
        "bare_seconds": bare,
        "disabled_recorder_seconds": carried,
        # The reported figure is clamped at 0 — a negative overhead is
        # host noise, not a real speedup, and recording it as-is lets
        # noise mask a later regression.  The raw value stays alongside
        # it and is what the gate asserts on.
        "overhead_pct": max(pct, 0.0),
        "overhead_pct_raw": pct,
        "evaluations_per_side": reps * len(candidates),
    }


def _search_walltime(cluster, program, models, reps=5):
    """Wall-time of a full GBS search (the paper's Section 5 driver)
    through each kernel, interleaved like the throughput loop."""
    out = {}
    spent = {label: 0.0 for label in models}
    results = {}
    for label, model in models.items():  # warm table caches on the grid
        GeneralizedBinarySearch(model, cluster).search(budget=300)
    for _ in range(reps):
        for label, model in models.items():
            search = GeneralizedBinarySearch(model, cluster)
            t0 = time.perf_counter()
            result = search.search(budget=300)
            spent[label] += time.perf_counter() - t0
            results[label] = result
    for label, seconds in spent.items():
        result = results[label]
        out[label] = {
            "mean_seconds": seconds / reps,
            "evaluations": result.evaluations,
            "predicted_seconds": result.predicted_seconds,
        }
    # Both kernels must agree on what they searched for.
    preds = [r["predicted_seconds"] for r in out.values()]
    assert max(preds) - min(preds) <= 1e-9 * max(preds)
    return out


def test_kernel_throughput_and_search(benchmark, save_result):
    cluster, program, models, candidates = _setup()

    throughput = benchmark.pedantic(
        _interleaved_throughput, args=(models, candidates),
        rounds=1, iterations=1,
    )
    batched = _batched_throughput(models, candidates)
    search = _search_walltime(cluster, program, models)
    telemetry = _telemetry_overhead(models["numpy-cached"], candidates)

    baseline = throughput["scalar-uncached"]["evaluations_per_second"]
    default = throughput["numpy-cached"]["evaluations_per_second"]
    eval_speedup = default / baseline
    batch_speedup = (
        batched["numpy-cached"]["evaluations_per_second"] / baseline
    )
    search_speedup = (
        search["scalar-uncached"]["mean_seconds"]
        / search["numpy-cached"]["mean_seconds"]
    )

    payload = {
        "benchmark": "model_speed",
        "workload": "jacobi on HY1, spectrum candidates + batched GBS search",
        "paper_ms_per_evaluation": 5.4,
        "python": platform.python_version(),
        "throughput": throughput,
        "batched_throughput": batched,
        "search": search,
        "speedup": {
            "evaluations_numpy_cached_vs_scalar_uncached": eval_speedup,
            "batched_numpy_cached_vs_scalar_uncached": batch_speedup,
            "search_numpy_cached_vs_scalar_uncached": search_speedup,
            "required": REQUIRED_SPEEDUP,
        },
        "telemetry_overhead": telemetry,
        "table_cache_stats": models["numpy-cached"].table_cache_stats,
    }
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        "MHETA prediction-kernel speed (jacobi on HY1; paper reports "
        "~5.4 ms/eval on 2005 hardware):"
    ]
    for label, row in throughput.items():
        brow = batched[label]
        lines.append(
            f"  {label:16s} {row['evaluations_per_second']:8.0f} evals/s "
            f"({row['mean_ms']:.3f} ms) | batched "
            f"{brow['evaluations_per_second']:8.0f} evals/s "
            f"({brow['mean_ms']:.3f} ms)"
        )
    lines.append(
        f"  GBS search: scalar {search['scalar-uncached']['mean_seconds']*1e3:.1f} ms "
        f"-> numpy {search['numpy-cached']['mean_seconds']*1e3:.1f} ms"
    )
    lines.append(
        f"  speedup: {eval_speedup:.2f}x evaluations, "
        f"{batch_speedup:.2f}x batched, {search_speedup:.2f}x search "
        f"(search required >= {REQUIRED_SPEEDUP:.0f}x)"
    )
    lines.append(
        f"  disabled-telemetry overhead: {telemetry['overhead_pct']:.2f}% "
        f"(raw {telemetry['overhead_pct_raw']:.2f}%, required <= 5%)"
    )
    save_result("model_speed", "\n".join(lines))

    # Usable on the fly (the paper's claim) for every configuration...
    for row in throughput.values():
        assert row["mean_ms"] < 10.0
    # ...and the batched default must beat the seed by the issue's bar on
    # the end-to-end workload it exists for: the search itself.
    assert search_speedup >= REQUIRED_SPEEDUP, (
        f"batched search speedup {search_speedup:.2f}x below required "
        f"{REQUIRED_SPEEDUP}x (evals {eval_speedup:.2f}x, "
        f"batched {batch_speedup:.2f}x)"
    )
    # A disabled recorder must be near-free on the hot path; the gate
    # uses the *unclamped* value so negative noise cannot hide drift.
    assert telemetry["overhead_pct_raw"] <= 5.0, (
        f"disabled-telemetry overhead {telemetry['overhead_pct_raw']:.2f}% "
        "exceeds the 5% budget"
    )


def test_single_evaluation_speed(benchmark):
    """The default model keeps single evaluations in single-digit ms."""
    cluster = config_hy1()
    program = JacobiApp.paper().structure
    model = build_model(cluster, program)
    candidates = itertools.cycle(
        [p.distribution for p in spectrum(cluster, program, steps_per_leg=4)]
    )

    def evaluate():
        return model.predict(next(candidates))

    result = benchmark(evaluate)
    assert result > 0
    assert benchmark.stats.stats.mean * 1e3 < 10.0


def test_timing_harness(benchmark, save_result):
    timing = benchmark.pedantic(
        model_evaluation_timing, rounds=1, iterations=1
    )
    save_result("model_speed_harness", timing.describe())
    assert timing.usable_on_the_fly
