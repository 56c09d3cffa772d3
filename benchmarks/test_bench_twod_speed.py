"""Bench N2: 2-D prediction-kernel speed — and what that speed buys.

The paper declined 2-D distributions because "the search space increases
greatly"; the batched 2-D kernel exists to make that search space
affordable.  This benchmark measures two implementations — the
``scalar`` per-rank reference loop (the test oracle
``tests/model_reference.py``) and the model's vectorized ``numpy``
path —
*interleaved* so host noise hits them equally, and writes the
machine-readable scoreboard ``BENCH_twod_speed.json`` at the repo root:

* ``evaluations_per_second`` per kernel, serial and through
  ``predict(batch=True)``,
* the golden-equivalence figure (worst relative disagreement of the
  batched numpy kernel against the scalar reference; must be
  <= 1e-12),
* the headline batched speedup — the hard CI gate asserts the batched
  numpy kernel beats the scalar loop by >= 5x (the recorded target is
  10x),
* a cluster configuration where the best genuinely-2-D layout beats
  the best 1-D strip spectrum — the payoff the kernel speed pays for.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.cluster import baseline_cluster, config_dc
from repro.distribution import largest_remainder_round
from repro.instrument.collect import MeasurementConfig
from repro.sim import PerturbationConfig
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDGbs,
    TwoDModel,
    block2d,
    build_2d_model,
    factor_pairs,
    is_degenerate,
)
from tests.model_reference import ReferenceModel2D

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_twod_speed.json"

#: Hard CI gate: the batched numpy kernel must beat the batched scalar
#: reference loop by at least this factor.
REQUIRED_BATCHED_SPEEDUP = 5.0

#: The headline target the scoreboard records against.
TARGET_BATCHED_SPEEDUP = 10.0

#: Golden equivalence bar for the batched kernels vs the scalar loop.
GOLDEN_REL_TOL = 1e-12

#: The measured implementations, by label.
CONFIGS = {"scalar": ReferenceModel2D, "numpy": TwoDModel}


def _setup():
    cluster = config_dc()
    spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=50)
    d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
    base = build_2d_model(
        cluster,
        spec,
        d0,
        perturbation=PerturbationConfig.none(),
        measurement=MeasurementConfig.perfect(),
    )
    models = {
        label: model_cls(cluster, spec, base.inputs)
        for label, model_cls in CONFIGS.items()
    }
    rng = np.random.RandomState(0)
    candidates = []
    for shape in factor_pairs(cluster.n_nodes):
        R, C = shape
        candidates.append(block2d(spec.n_rows, spec.n_cols, shape))
        for _ in range(5):
            candidates.append(
                GenBlock2D(
                    largest_remainder_round(
                        rng.uniform(0.5, 2.0, size=R), spec.n_rows, minimum=1
                    ),
                    largest_remainder_round(
                        rng.uniform(0.5, 2.0, size=C), spec.n_cols, minimum=1
                    ),
                )
            )
    return cluster, spec, models, candidates


def _interleaved_throughput(models, candidates, reps=10):
    """Per-kernel evaluations/second through the serial call,
    alternating kernels each rep so host noise spreads evenly."""
    for model in models.values():  # warm plans and bytecode
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


def _batched_throughput(models, candidates, reps=10, burst=3):
    """Per-kernel evaluations/second through ``predict(batch=True)``
    (the scalar kernel loops internally — the honest baseline), in
    short bursts per kernel as a search loop would issue them."""
    for model in models.values():
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


def _golden_equivalence(models, candidates):
    """Worst relative disagreement of the batched numpy kernel against
    the scalar reference, over the full candidate set."""
    want = np.array([models["scalar"].predict(d) for d in candidates])
    got = np.asarray(models["numpy"].predict(candidates, batch=True))
    return {"numpy": float(np.max(np.abs(got - want) / np.abs(want)))}


def _twod_beats_one_d():
    """A cluster configuration where the best genuinely-2-D layout beats
    the best 1-D strip spectrum: a homogeneous cluster running a
    communication-heavy square stencil (square-ish tiles trade the
    strips' long halo edges for two short ones)."""
    base = baseline_cluster()
    from repro.util.units import mib

    cluster = base.with_nodes(
        [
            n.with_(cpu_power=1.0, memory_bytes=mib(256))
            for n in base.nodes
        ],
        name="homog2d",
    )
    spec = Jacobi2DSpec(
        n_rows=2048, n_cols=2048, iterations=60, work_per_element=5e-9
    )
    d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
    model = build_2d_model(
        cluster,
        spec,
        d0,
        perturbation=PerturbationConfig.none(),
        measurement=MeasurementConfig.perfect(),
    )
    result = TwoDGbs(model).search(budget=400)
    strips = min(
        v for s, v in result.per_shape.items() if is_degenerate(s)
    )
    genuine = min(
        v for s, v in result.per_shape.items() if not is_degenerate(s)
    )
    return {
        "cluster": cluster.name,
        "workload": "2048x2048 Jacobi, 60 iterations, 5 ns/element",
        "best_one_d_strip_seconds": strips,
        "best_two_d_seconds": genuine,
        "best_shape": list(result.best.grid_shape),
        "evaluations": result.evaluations,
        "per_shape": {
            f"{s[0]}x{s[1]}": v for s, v in sorted(result.per_shape.items())
        },
        "two_d_wins": genuine < strips,
    }


def test_twod_kernel_throughput(benchmark, save_result):
    cluster, spec, models, candidates = _setup()

    throughput = benchmark.pedantic(
        _interleaved_throughput, args=(models, candidates),
        rounds=1, iterations=1,
    )
    batched = _batched_throughput(models, candidates)
    golden = _golden_equivalence(models, candidates)
    payoff = _twod_beats_one_d()

    scalar = batched["scalar"]["evaluations_per_second"]
    numpy_speedup = batched["numpy"]["evaluations_per_second"] / scalar
    serial_numpy_speedup = (
        throughput["numpy"]["evaluations_per_second"]
        / throughput["scalar"]["evaluations_per_second"]
    )

    payload = {
        "benchmark": "twod_speed",
        "workload": (
            "1024x1024 2-D Jacobi on DC, "
            f"{len(candidates)} candidates over {factor_pairs(8)}"
        ),
        "python": platform.python_version(),
        "throughput": throughput,
        "batched_throughput": batched,
        "golden_equivalence_rel": golden,
        "golden_required_rel": GOLDEN_REL_TOL,
        "speedup": {
            "batched_numpy_vs_scalar": numpy_speedup,
            "serial_numpy_vs_scalar": serial_numpy_speedup,
            "required": REQUIRED_BATCHED_SPEEDUP,
            "target": TARGET_BATCHED_SPEEDUP,
        },
        "two_d_vs_one_d": payoff,
    }
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        "2-D prediction-kernel speed (1024x1024 Jacobi on DC, "
        f"{len(candidates)} candidates across all grid shapes):"
    ]
    for label in CONFIGS:
        row, brow = throughput[label], batched[label]
        lines.append(
            f"  {label:8s} {row['evaluations_per_second']:8.0f} evals/s "
            f"({row['mean_ms']:.3f} ms) | batched "
            f"{brow['evaluations_per_second']:8.0f} evals/s "
            f"({brow['mean_ms']:.3f} ms)"
        )
    lines.append(
        f"  batched speedup vs scalar: numpy {numpy_speedup:.1f}x "
        f"(required >= {REQUIRED_BATCHED_SPEEDUP:.0f}x, "
        f"target {TARGET_BATCHED_SPEEDUP:.0f}x)"
    )
    lines.append(
        f"  golden equivalence: numpy {golden['numpy']:.2e} "
        f"(required <= {GOLDEN_REL_TOL:.0e})"
    )
    lines.append(
        f"  payoff on {payoff['cluster']}: best 2-D "
        f"{payoff['best_two_d_seconds']:.4f}s "
        f"({payoff['best_shape'][0]}x{payoff['best_shape'][1]}) vs best "
        f"1-D strip {payoff['best_one_d_strip_seconds']:.4f}s — "
        f"{'2-D wins' if payoff['two_d_wins'] else '1-D wins'}"
    )
    save_result("twod_speed", "\n".join(lines))

    # The batched kernel must be *exact* (to fp tolerance) ...
    assert golden["numpy"] <= GOLDEN_REL_TOL, (
        f"numpy kernel disagrees with the scalar reference by "
        f"{golden['numpy']:.2e} (> {GOLDEN_REL_TOL:.0e})"
    )
    # ... and fast.
    assert numpy_speedup >= REQUIRED_BATCHED_SPEEDUP, (
        f"batched numpy speedup {numpy_speedup:.2f}x vs the scalar loop "
        f"is below the {REQUIRED_BATCHED_SPEEDUP}x hard gate"
    )
    # And the speed must buy the paper's declined result: a cluster
    # where a genuinely 2-D layout beats every 1-D strip.
    assert payoff["two_d_wins"], (
        f"expected 2-D to beat 1-D strips on {payoff['cluster']}: "
        f"{payoff['best_two_d_seconds']:.4f}s vs "
        f"{payoff['best_one_d_strip_seconds']:.4f}s"
    )
