"""Child process running a library workload (advise, layout2d, adaptive).

``run.py`` starts this script in a fresh interpreter, so the program's
process-wide caches (plan LRU, run cache, table LRUs) start cold; every
job then brings a cluster no earlier job used, so each one runs cold.
The child imports the program and prints ``READY`` (set-up time is
measured up to there), then waits for ``go`` (or ``exit``) and runs the
job list in order until ``--seconds`` have passed, stopping only at the
end of a stratified block and never before the control set is done.

Before every job, and after the last, it times the host-speed probe
(``probe.py``).  It prints one JSON line: every job's start and end
(``perf_counter_ns``) and answers, the probe samples, and with
``--trace`` the per-layer metrics of its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import workloads
from probe import Probe
from spans import ID, N, Tracer, duration, layer

#: Budgets and sizes the workloads fix for each job.
ADVISE_BUDGET = 150
LAYOUT_BUDGET = 200
LAYOUT_ITERATIONS = 50


def _cluster(job: dict):
    from repro import ClusterSpec, NodeSpec

    nodes = [
        NodeSpec(name=f"node{i}", cpu_power=cpu, memory_bytes=mem).scaled_io(io)
        for i, (cpu, mem, io) in enumerate(job["nodes"])
    ]
    return ClusterSpec(name=job["name"], nodes=tuple(nodes))


def prepare(workload: str, jobs: List[dict]) -> List[tuple]:
    """Program inputs for every job (untimed)."""
    from repro.apps import application_by_name
    from repro.cluster import dynamics_scenario
    from repro.twod import Jacobi2DSpec

    programs: Dict[tuple, object] = {}
    out = []
    for job in jobs:
        cluster = _cluster(job)
        if workload == "layout2d":
            n = job["n"]
            out.append((cluster, Jacobi2DSpec(n, n, iterations=LAYOUT_ITERATIONS)))
            continue
        key = ("jacobi" if workload == "adaptive" else job["app"], job["scale"])
        if key not in programs:
            programs[key] = application_by_name(*key).structure
        if workload == "advise":
            out.append((cluster, programs[key]))
        else:
            spec = dynamics_scenario(job["scenario"], cluster.n_nodes, start=job["start"])
            out.append((cluster, programs[key], spec))
    return out


def valid_counts(counts, total: int, n_nodes: int) -> bool:
    return len(counts) == n_nodes and sum(counts) == total and min(counts) >= 1


# -- one job per workload -----------------------------------------------------
#
# Each returns the job's answers: plain JSON values, a pure function of
# the job, so every run of it returns them bit for bit.


def advise_job(job, inputs, tracer: Tracer, rec) -> dict:
    from repro import GeneralizedBinarySearch, build_model
    from repro.distribution import block
    from repro.sim import emulate_many

    cluster, program = inputs
    model = tracer.call("instrument.build_model", build_model, cluster, program)
    result = GeneralizedBinarySearch(model, cluster).search(
        budget=ADVISE_BUDGET, telemetry=rec
    )
    blk = block(cluster, program.n_rows)
    runs = tracer.call(
        "sim.emulate_many", emulate_many, cluster, program, [result.best, blk],
        telemetry=rec, n=2,
    )
    counts = list(result.best.counts)
    return {
        "counts": counts,
        "valid": valid_counts(counts, program.n_rows, cluster.n_nodes),
        "predicted": result.predicted_seconds,
        "actual": runs[0].total_seconds,
        "baseline": runs[1].total_seconds,
    }


def layout2d_job(job, inputs, tracer: Tracer, rec) -> dict:
    from repro.twod import (
        TwoDEmulator, TwoDLayoutSearch, block2d, build_2d_model, factor_pairs,
    )

    cluster, spec = inputs
    P, n = cluster.n_nodes, spec.n_rows
    # The squarest grid instruments, as `repro search --twod all` does.
    shape0 = min(factor_pairs(P), key=lambda s: abs(s[0] - s[1]))
    model = tracer.call(
        "twod.build_2d_model", build_2d_model, cluster, spec, block2d(n, n, shape0),
    )
    result = tracer.call(
        "twod.search", TwoDLayoutSearch(model, cluster).search,
        budget=LAYOUT_BUDGET, telemetry=rec,
    )
    emulator = TwoDEmulator(cluster, spec)
    best = result.best
    actual = tracer.call("twod.emulate", emulator.run, best, telemetry=rec)
    strip = tracer.call("twod.emulate", emulator.run, block2d(n, n, (1, P)), telemetry=rec)
    rows, cols = list(best.row_counts), list(best.col_counts)
    return {
        "counts": [list(best.grid_shape), rows, cols],
        "valid": (
            best.grid_shape[0] * best.grid_shape[1] == P
            and valid_counts(rows, n, best.grid_shape[0])
            and valid_counts(cols, n, best.grid_shape[1])
        ),
        "predicted": result.predicted_seconds,
        "actual": actual,
        "baseline": strip,
    }


def adaptive_job(job, inputs, tracer: Tracer, rec) -> dict:
    from repro import AdaptiveRuntime

    cluster, program, spec = inputs
    report = tracer.call(
        "runtime.run", AdaptiveRuntime(cluster, program, dynamics=spec).run,
        telemetry=rec,
    )
    counts = list(report.chosen_distribution.counts)
    return {
        "scenario": job["scenario"],
        "counts": counts,
        "valid": valid_counts(counts, program.n_rows, cluster.n_nodes),
        "accounted": sum(r.iterations for r in report.rounds) + report.n_rounds,
        "iterations": program.iterations,
        "rounds": report.n_rounds,
        # The advised run is the adaptive one with every emulated
        # overhead charged (instrumented iterations, redistribution);
        # the search's host wall time is left out, so the answer is a
        # pure function of the job.  The baseline is the static run.
        "actual": report.adaptive_seconds - report.search_wall_seconds,
        "baseline": report.static_seconds,
    }


JOB = {"advise": advise_job, "layout2d": layout2d_job, "adaptive": adaptive_job}


def install_patches(workload: str, tracer: Tracer) -> None:
    """Spans around the layer functions that other layers call (the
    benchmark's own calls get theirs in the job functions above).  The
    2-D stack is timed at its entry points only: its searcher drives
    the 1-D searchers through adapters, which would otherwise book 2-D
    work to the 1-D layers."""
    if workload == "layout2d":
        return
    import repro.runtime.adaptive as adaptive
    from repro.core.model import MhetaModel
    from repro.search.base import SearchAlgorithm

    tracer.patch(MhetaModel, "predict", "core.predict",
                 lambda args, kwargs: len(args[1]) if kwargs.get("batch") else 1)
    tracer.patch(SearchAlgorithm, "search", "search.search")
    tracer.patch(adaptive, "emulate", "sim.emulate")
    tracer.patch(adaptive, "emulate_many", "sim.emulate_many",
                 lambda args, kwargs: len(args[2]))
    tracer.patch(adaptive, "collect_inputs", "instrument.collect_inputs")


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(workload: str, tracer: Tracer, rec, n_jobs: int,
                  compiles: float, compile_s: float) -> Dict[str, float]:
    """Per-layer figures of the traced jobs.  Busy times are span self
    times (wall clock) at p50 per call; counts come from the program's
    ``telemetry=`` counters, per job unless named otherwise."""
    ratio = common.ratio
    c = rec.counters
    selfs = tracer.self_times()

    def p50_ms(spans) -> float:
        return common.median(spans) / 1e6 if spans else 0.0

    def busy(layer_name):
        return [ns for _, ns in tracer.outermost(layer_name)]

    def durations(name):
        return [duration(s) for s in tracer.named(name)]

    metrics = common.counter_metrics(c)
    metrics.update({
        # Searchers score candidates without passing ``telemetry=``, so
        # model evaluations are counted at the span boundary.
        "core.predictions": ratio(
            sum(s[N] for s in tracer.spans if layer(s) == "core"), n_jobs
        ),
        "core.plan_compiles": ratio(compiles, n_jobs),
        "core.plan_compile_ms": ratio(compile_s * 1e3, n_jobs),
        "obs.unattributed_pct": tracer.unattributed_pct(),
    })
    if workload == "layout2d":
        metrics.update({
            "twod.build_ms": p50_ms(durations("twod.build_2d_model")),
            "twod.search_ms": p50_ms(durations("twod.search")),
            "twod.evaluations": ratio(c.get("search/evaluations", 0), n_jobs),
            "twod.emulate_ms": p50_ms(durations("twod.emulate")),
        })
        return metrics
    searches = [s for s, _ in tracer.outermost("search")]
    evaluations = c.get("search/evaluations", 0)
    sim_spans = [s for s in tracer.spans if layer(s) == "sim"]
    metrics.update({
        "instrument.build_ms": p50_ms(busy("instrument")),
        "search.busy_ms": p50_ms(busy("search")),
        "search.evaluations": ratio(evaluations, len(searches)),
        "search.cache_hit_ratio": ratio(
            c.get("search/cache_hits", 0), c.get("search/cache_hits", 0) + evaluations
        ),
        "search.us_per_eval": ratio(sum(map(duration, searches)) / 1e3, evaluations),
        "sim.verify_ms": p50_ms(busy("sim")),
        "sim.ms_per_candidate": ratio(
            sum(selfs[s[ID]] for s in sim_spans) / 1e6, sum(s[N] for s in sim_spans)
        ),
    })
    if workload == "adaptive":
        runs = tracer.named("runtime.run")
        run_ns = sum(map(duration, runs))
        metrics.update({
            "runtime.run_ms": p50_ms([duration(s) for s in runs]),
            "runtime.rounds": ratio(c.get("search/runs", 0), len(runs)),
            "runtime.search_share": ratio(sum(map(duration, searches)), run_ns),
            "runtime.full_runs": ratio(c.get("sim/full_runs", 0), len(runs)),
        })
    return metrics


# -- the run --------------------------------------------------------------------


def run_jobs(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
             spans_path: Optional[str]) -> dict:
    from repro import Recorder
    from repro.core.plan import plan_cache_stats

    jobs = workloads.library_jobs(workload, seed, seconds, smoke)
    inputs = prepare(workload, jobs)
    control = (workloads.SMOKE_QUALITY_JOBS if smoke else workloads.QUALITY_JOBS)[workload]
    block = workloads.BLOCK[workload]
    # A traced run needs an untraced and a traced block at least.
    min_jobs = max(control, 2 * block if trace else block)
    job_fn = JOB[workload]
    tracer = Tracer()
    rec = Recorder()
    if trace:
        install_patches(workload, tracer)
    probe = Probe()

    spans: List[List[int]] = []
    traced: List[bool] = []
    outcomes: List[Optional[dict]] = []
    errors: List[str] = []
    compiles = compile_s = 0.0
    started = time.perf_counter()
    for i, job in enumerate(jobs):
        if i % block == 0 and i >= min_jobs:
            # Stop at the block boundary nearest the deadline.
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / (2 * (i // block)) >= seconds:
                break
        # A traced run traces every other block: the untraced ones give
        # the end-to-end figures and, against the traced ones, the
        # tracing overhead.
        tracer.enabled = trace and (i // block) % 2 == 1
        tracer.op = i
        probe()
        plan0 = plan_cache_stats() if tracer.enabled else None
        root = tracer.begin("job")
        t0 = time.perf_counter_ns()
        try:
            outcome = job_fn(job, inputs[i], tracer, rec if tracer.enabled else None)
        except Exception as exc:  # one failed job must not end the run
            outcome = None
            errors.append(f"job {i}: {type(exc).__name__}: {exc}")
        spans.append([t0, time.perf_counter_ns()])
        tracer.end(root)
        if tracer.enabled:
            plan1 = plan_cache_stats()
            compiles += plan1["compiles"] - plan0["compiles"]
            compile_s += plan1["compile_seconds"] - plan0["compile_seconds"]
        traced.append(tracer.enabled)
        outcomes.append(outcome)
    probe()
    tracer.restore()

    result = {
        "spans": spans,
        "traced": traced,
        "outcomes": outcomes,
        "errors": errors,
        "probes": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numba_active": plan_cache_stats()["numba_active"],
    }
    if trace:
        result["layers"] = layer_metrics(workload, tracer, rec, sum(traced),
                                         compiles, compile_s)
        if spans_path:
            tracer.dump(Path(spans_path), {"workload": workload, "seed": seed,
                                           "seconds": seconds})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(JOB))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    common.require_program()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = run_jobs(args.workload, args.seed, args.seconds, args.trace,
                      args.smoke, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
