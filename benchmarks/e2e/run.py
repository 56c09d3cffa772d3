"""End-to-end benchmark of the MHETA advisor path.

    python3 benchmarks/e2e/run.py --workload {advise,layout2d,serve,adaptive,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

Each workload runs its seeded inputs for ``--seconds`` in fresh
processes, so the program's caches start cold.  The library workloads'
job times and every workload's set-up times are calibrated for host
speed by a probe timed around them (``probe.py``; the raw wall-clock
figures are recorded next to them); serve requests are timed by the
wall clock (``serve_load.py``).  Latency percentiles are Harrell-Davis
estimates (``common.percentile``).

The run prints every metric with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding BENCHMARK.json's end-to-end metrics, or with
``--trace 1`` its per-layer metrics (layers a workload does not reach
read 0).  A traced run traces every other block of jobs, takes the
end-to-end figures from the others and writes its spans to
``benchmarks/e2e/out/spans-<workload>-seed<N>.json``.  ``--out`` appends
the full run records (environment block included) to a result set that
``compare.py`` reads.  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import common
import workloads
from probe import Calibration, Probe, calibrated_seconds

#: Wall-clock allowance beyond the run's own length; a hung worker
#: fails the run instead of stalling it.
WORKER_SLACK_S = 60.0
SMOKE_SECONDS = 2.0


class Worker:
    """One ``worker.py`` child, spawned and waited on until READY."""

    def __init__(self, args: List[str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "worker.py"), *args],
            cwd=common.ROOT, env=common.child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError(f"worker failed before READY: {line!r}")
        self.setup_s = time.perf_counter() - started

    def finish(self, command: str, timeout: float) -> dict:
        """Send ``go`` (run the jobs) or ``exit``; wait for the child
        and return its result line, if any."""
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker exceeded its time")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if command == "go" else {}


def load_library(workload, seed, seconds, trace, smoke, spans) -> dict:
    """Set up ``common.SETUPS`` workers; the last one runs the jobs."""
    args = [workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--smoke"] * smoke + ["--trace"] * trace
    args += ["--spans", str(spans)] if spans else []
    probe = Probe()
    setups, setups_wall = [], []
    for i in range(common.SETUPS):
        before = probe.burst(common.SETUP_PROBES)
        worker = Worker(args)
        after = probe.burst(common.SETUP_PROBES)
        setups.append(calibrated_seconds(worker.setup_s, before + after))
        setups_wall.append(worker.setup_s)
        if i < common.SETUPS - 1:
            worker.finish("exit", WORKER_SLACK_S)
    raw = worker.finish("go", seconds + WORKER_SLACK_S)
    return dict(raw, setups=setups, setups_wall=setups_wall)


def library_checks(workload: str, outcomes: List[dict]) -> tuple:
    """``(checks, failed job count)``: every check counts jobs as
    ``[passed, failed]``; a job fails when it raised or failed any
    check."""
    names = ["valid"]
    if workload == "adaptive":
        names += ["accounting", "stationary_one_round"]
    checks = {name: [0, 0] for name in names}
    failed = 0
    for o in outcomes:
        if o is None:
            failed += 1
            continue
        results = {"valid": o["valid"]}
        if workload == "adaptive":
            results["accounting"] = o["accounted"] == o["iterations"]
            results["stationary_one_round"] = (
                o["scenario"] != "stationary" or o["rounds"] == 1
            )
        for name, ok in results.items():
            checks[name][0 if ok else 1] += 1
        failed += not all(results.values())
    return checks, failed


def quality_metrics(workload: str, outcomes: List[dict]) -> dict:
    """The deterministic figures of the control set's answers: the
    advised run against its baseline and, where the job predicts its
    advised run, the model's error."""
    metrics = {
        "advice_gain": common.geomean([o["baseline"] / o["actual"] for o in outcomes]),
    }
    if workload != "adaptive":
        metrics["model_error_pct"] = common.median([
            abs(o["predicted"] - o["actual"]) / min(o["predicted"], o["actual"]) * 100.0
            for o in outcomes
        ]) if outcomes else math.nan
    return metrics


def summarize_library(workload: str, raw: dict, trace: bool, smoke: bool) -> dict:
    cal = Calibration(raw["probes"])
    untraced = [s for s, t in zip(raw["spans"], raw["traced"]) if not t]
    ms = cal.all_ms(untraced)
    wall_ms = [(t1 - t0) / 1e6 for t0, t1 in untraced]
    outcomes = raw["outcomes"]
    checks, failed = library_checks(workload, outcomes)
    control = (workloads.SMOKE_QUALITY_JOBS if smoke else workloads.QUALITY_JOBS)[workload]
    # A failed control job leaves the quality figures to the others; the
    # failure itself makes the run incorrect.
    quality = [o for o in outcomes[:control] if o is not None]
    metrics = dict(
        common.latency_metrics(ms),
        throughput_per_s=1e3 * len(ms) / sum(ms),
        error_frac=failed / len(outcomes),
        peak_rss_mb=raw["peak_rss_mb"],
        setup_s=common.median(raw["setups"]),
        **quality_metrics(workload, quality),
    )
    result = {
        "attempted": len(outcomes),
        "failed": failed,
        "errors": raw["errors"][:5],
        "checks": checks,
        "metrics": metrics,
        "wall": dict(
            common.latency_metrics(wall_ms),
            throughput_per_s=1e3 * len(wall_ms) / sum(wall_ms),
            setup_s=common.median(raw["setups_wall"]),
        ),
        "setup_samples_s": raw["setups"],
        "samples": {
            "latency": len(ms),
            "beyond_p90": common.beyond(ms, 90),
            "quality_jobs": len(quality),
        },
        "measured_s": (raw["spans"][-1][1] - raw["spans"][0][0]) / 1e9,
        "numba_active": raw["numba_active"],
    }
    if trace:
        traced = [s for s, t in zip(raw["spans"], raw["traced"]) if t]
        layers = raw["layers"]
        layers["obs.trace_overhead_pct"] = common.trace_overhead_pct(cal.all_ms(traced), ms)
        result["layers"] = layers
    return result


def run_workload(workload, seed, seconds, trace, smoke) -> dict:
    spans = common.OUT_DIR / f"spans-{workload}-seed{seed}.json" if trace else None
    if workload == "serve":
        import serve_load

        return serve_load.run(seed, seconds, trace, spans)
    raw = load_library(workload, seed, seconds, trace, smoke, spans)
    return summarize_library(workload, raw, trace, smoke)


def record(workload, seed, seconds, trace, smoke, result, spec, env) -> dict:
    """The full run record: every BENCHMARK.json end-to-end metric (NaN
    where the run could not measure it), then the workload's other
    figures as diagnostics, each with its unit."""
    figures = result["metrics"]
    metrics = {
        m["name"]: {"value": figures.get(m["name"], math.nan), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    diagnostics = {
        name: {"value": value, "unit": common.DIAGNOSTIC_UNITS[name]}
        for name, value in figures.items() if name not in metrics
    }
    checks_ok = all(bad == 0 for _, bad in result["checks"].values())
    measured = all(math.isfinite(m["value"]) for m in metrics.values())
    rec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "environment": dict(env, numba_active=result["numba_active"]),
        "correct": checks_ok and measured and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "errors": result["errors"],
        "samples": result["samples"],
        "measured_s": result["measured_s"],
        "setup_samples_s": result["setup_samples_s"],
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
    if "wall" in result:
        rec["wall"] = result["wall"]
    if trace:
        layers = result["layers"]
        rec["layers"] = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return rec


def describe(rec: dict) -> str:
    lines = [f"{rec['workload']} (seed {rec['seed']}, {rec['measured_s']:.1f} s "
             f"measured, {rec['attempted']} operations, {rec['failed']} failed)"]
    for section in ("metrics", "diagnostics", "layers"):
        for name, m in rec.get(section, {}).items():
            lines.append(f"  {name:<32s} {m['value']:>14.6g} {m['unit']}")
    for name, count in rec["samples"].items():
        lines.append(f"  samples {name:<24s} {count}")
    for name, (ok, bad) in rec["checks"].items():
        lines.append(f"  check {name:<26s} {ok} passed, {bad} failed")
    for error in rec["errors"]:
        lines.append(f"  error: {error}")
    return "\n".join(lines)


def result_line(records: List[dict], spec: dict, trace: bool) -> dict:
    """The last line: BENCHMARK.json's metrics of this run.  A value the
    run could not measure (NaN) is written as null, so the line stays
    strict JSON; such a run is never correct."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    section = "layers" if trace else "metrics"
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name in names:
            key = f"{rec['workload']}/{name}" if prefix else name
            m = rec[section][name]
            value = m["value"] if math.isfinite(m["value"]) else None
            metrics[key] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def append_result(path: Path, records: List[dict]) -> None:
    data = {"runs": []}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the MHETA advisor path."
    )
    parser.add_argument(
        "--workload", required=True, choices=common.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                        "BENCHMARK.json's run_seconds; compare.py accepts "
                        "no full run of another length)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, small control sets")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the run records to this result set")
    args = parser.parse_args(argv)

    common.require_program()
    spec = common.load_benchmark_spec()
    seconds = (
        SMOKE_SECONDS if args.smoke
        else args.seconds if args.seconds is not None
        else float(spec["run_seconds"])
    )
    env = common.environment()
    names = common.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
        rec = record(name, args.seed, seconds, bool(args.trace), args.smoke,
                     result, spec, env)
        print(describe(rec), flush=True)
        records.append(rec)
    if args.out is not None:
        append_result(args.out, records)
    line = result_line(records, spec, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
