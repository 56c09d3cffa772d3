"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment harness and the runtime system without writing
any Python:

* ``table1``      — print the Table-1 configurations;
* ``sweep``       — actual-vs-predicted across the spectrum for one
  application on one configuration;
* ``predict``     — MHETA's per-node prediction report for one
  distribution;
* ``instrument``  — run the instrumented iteration and write the
  internal MHETA file;
* ``analyse``     — per-node time breakdown of one emulated run;
* ``emulate``     — one ground-truth emulated run, optionally on a
  dynamic cluster;
* ``search``      — run one search algorithm with MHETA;
* ``verify``      — batched ground-truth emulation of candidate
  distributions;
* ``adaptive``    — the Section-6 adaptive runtime end to end;
* ``accuracy``    — one Figure-9 panel;
* ``timing``      — the evaluation-cost measurement;
* ``spreads``     — the Section-5.3 best-vs-worst table;
* ``ablation``    — the error-source ablation;
* ``robustness``  — the non-dedicated-environment study;
* ``stats``       — one instrumented seed run dumping the full
  telemetry surface (phase breakdown, cache and search counters);
* ``serve``       — the always-on distribution-advisor service
  (asyncio coordinator, micro-batched concurrent queries, warm
  caches);
* ``query``       — client for a running ``serve`` instance.

Every command takes ``--scale`` (default 0.1: seconds of wall time;
``--scale 1.0`` is paper scale).  ``sweep``, ``predict``, ``emulate``,
``search``, ``verify``, ``adaptive``, ``stats`` and ``serve`` take
``--telemetry {text,json,csv}`` to dump the run's
:class:`repro.obs.Recorder` after the normal output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster import DYNAMICS_SCENARIOS, TABLE1_CONFIGS, dynamics_scenario
from repro.apps import APPLICATIONS, application_by_name
from repro.distribution import ANCHORS, anchor_distribution, block
from repro.exceptions import DistributionError, ServeError
from repro.experiments import (
    build_model,
    dedicated_assumption_study,
    distribution_spread,
    error_ablation,
    fig9_accuracy,
    model_evaluation_timing,
    run_spectrum,
    table1,
)
from repro.experiments.common import percent_difference
from repro.runtime import AdaptiveRuntime
from repro.search import SEARCHERS, GeneralizedBinarySearch
from repro.obs import Recorder
from repro.serve.protocol import OPS
from repro.sim import IO_MODES, ClusterEmulator

__all__ = ["main", "build_parser"]


def _cluster(name: str):
    try:
        factory = TABLE1_CONFIGS[name.upper()]
    except KeyError:
        raise SystemExit(
            f"unknown configuration {name!r}; "
            f"choose from {tuple(TABLE1_CONFIGS)}"
        )
    return factory()


def _program(app: str, scale: float, prefetch: bool = False):
    application = application_by_name(app, scale)
    return application.prefetching() if prefetch else application.structure


def _parse_counts(text: str):
    """``--counts`` text -> a tuple of row counts."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(
            f"--counts expects comma-separated integers, got {text!r}"
        )


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="problem-size scale (1.0 = paper scale; default 0.1)",
    )
    if config:
        parser.add_argument(
            "--config", default="HY1",
            help=f"configuration {tuple(TABLE1_CONFIGS)}",
        )


def _add_dynamics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dynamics", choices=DYNAMICS_SCENARIOS, default=None,
        metavar="SCENARIO",
        help=f"time-varying cluster scenario {DYNAMICS_SCENARIOS}: "
        "background-load spikes, CPU drift, disk fade or node loss "
        "(deterministic functions of the iteration index)",
    )
    parser.add_argument(
        "--dynamics-start", type=int, default=20, metavar="IT",
        help="global iteration at which the scenario's disturbance "
        "begins (default 20)",
    )


def _dynamics_spec(args, cluster):
    """Resolve ``--dynamics``/``--dynamics-start`` to a DynamicsSpec."""
    if args.dynamics is None:
        return None
    return dynamics_scenario(
        args.dynamics, cluster.n_nodes, start=args.dynamics_start
    )


def _add_jobs(
    parser: argparse.ArgumentParser,
    cache: bool = False,
    parts: str = "the embarrassingly parallel parts",
) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=f"worker processes for {parts} "
        "(1 = serial, 0 = one per CPU; results are bit-identical)",
    )
    if cache:
        parser.add_argument(
            "--cache", default=None, metavar="PATH",
            help="on-disk memoisation cache for (actual, predicted) "
            "pairs; repeated invocations skip redundant emulation",
        )


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", choices=("text", "json", "csv"), default=None,
        metavar="FMT",
        help="record telemetry (repro.obs.Recorder) during the run and "
        "dump it after the normal output: text, json or csv",
    )


def _telemetry_recorder(args) -> Optional[Recorder]:
    return Recorder() if getattr(args, "telemetry", None) else None


def _render_telemetry(rec: Recorder, args) -> str:
    """Render a recorder per ``--telemetry`` (text when unset)."""
    fmt = args.telemetry
    if fmt == "json":
        return rec.to_json()
    if fmt == "csv":
        return rec.to_csv()
    return rec.describe()


def _with_telemetry(text: str, rec: Optional[Recorder], args) -> str:
    """``text``, then the ``--telemetry`` dump when a recorder ran."""
    if rec is None:
        return text
    return text + "\n\n" + _render_telemetry(rec, args)


def _sweep_cache(args):
    from repro.parallel import SweepCache

    path = getattr(args, "cache", None)
    return SweepCache(path) if path is not None else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MHETA (SC 2005) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table-1 configurations")

    p = sub.add_parser("sweep", help="actual vs predicted over the spectrum")
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--prefetch", action="store_true")
    p.add_argument("--chart", action="store_true", help="ASCII chart too")
    _add_common(p)
    _add_jobs(p, cache=True)
    _add_telemetry(p)

    p = sub.add_parser("predict", help="MHETA prediction for one distribution")
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument("--dist", default="blk", help=f"one of {tuple(ANCHORS)}")
    p.add_argument(
        "--verify", action="store_true",
        help="also run the emulator and report the error",
    )
    p.add_argument(
        "--inputs", default=None,
        help="load measurements from an internal MHETA file instead of "
        "re-running the instrumented iteration",
    )
    p.add_argument(
        "--twod", default=None, metavar="RxC",
        help="2-D mode (jacobi only): predict for an R x C processor "
        "grid over the square Jacobi array; --dist blk/bal map to the "
        "2-D anchors, --rows/--cols give explicit bands",
    )
    p.add_argument(
        "--rows", default=None, metavar="A,B,...",
        help="explicit 2-D row bands, comma-separated (requires --twod)",
    )
    p.add_argument(
        "--cols", default=None, metavar="A,B,...",
        help="explicit 2-D column bands, comma-separated (requires --twod)",
    )
    _add_common(p)
    _add_telemetry(p)

    p = sub.add_parser(
        "instrument",
        help="run the instrumented iteration and write the internal "
        "MHETA file",
    )
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument("output", help="path for the internal MHETA file (JSON)")
    _add_common(p)

    p = sub.add_parser(
        "analyse", help="per-node time breakdown of an emulated run"
    )
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument("--dist", default="blk", help=f"one of {tuple(ANCHORS)}")
    _add_common(p)

    p = sub.add_parser(
        "emulate",
        help="one ground-truth emulated run (optionally on a dynamic "
        "cluster)",
    )
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument("--dist", default="blk", help=f"one of {tuple(ANCHORS)}")
    p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="override the program's iteration count",
    )
    p.add_argument(
        "--io-mode", choices=IO_MODES,
        default="auto",
        help="I/O handling: auto (the program's own mode), forced "
        "sync/prefetch, or the instrumented measurement pass",
    )
    p.add_argument("--prefetch", action="store_true")
    _add_common(p)
    _add_dynamics(p)
    _add_telemetry(p)

    p = sub.add_parser("search", help="distribution search driven by MHETA")
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument(
        "--algorithm", choices=(*SEARCHERS, "all"), default="gbs"
    )
    p.add_argument("--budget", type=int, default=150)
    p.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="candidates scored per vectorized model pass (default 64); "
        "strategies with a natural population size (genetic, GBS legs) "
        "use that instead",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="run the emulator on each winner and report the actual time",
    )
    p.add_argument(
        "--twod", default=None, metavar="RxC|all",
        help="2-D mode (jacobi only): search row x column band layouts "
        "for one R x C grid shape, or 'all' for every factor pair "
        "(degenerate strips ride the 1-D spectrum path)",
    )
    _add_common(p)
    _add_jobs(p, parts="the 1-D --verify emulations")
    _add_telemetry(p)

    p = sub.add_parser(
        "verify",
        help="batched ground-truth emulation of candidate distributions",
    )
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument(
        "--dist", default="blk,bal,ic,icbal", metavar="A[,A...]",
        help=f"comma-separated anchors from {tuple(ANCHORS)} "
        "(default: all four)",
    )
    p.add_argument(
        "--counts", action="append", default=None, metavar="N,N,...",
        help="explicit GEN_BLOCK row counts (repeatable; added after "
        "the --dist anchors)",
    )
    p.add_argument("--prefetch", action="store_true")
    p.add_argument(
        "--run-cache", default=None, metavar="PATH",
        help="persistent on-disk RunCache tier (merge-on-save, atomic "
        "writes); repeated invocations skip redundant emulation",
    )
    _add_common(p)
    _add_jobs(p)
    _add_telemetry(p)

    p = sub.add_parser("adaptive", help="the Section-6 adaptive runtime")
    p.add_argument("app", choices=APPLICATIONS)
    p.add_argument(
        "--check-interval", type=int, default=10, metavar="N",
        help="iterations between drift checks on dynamic clusters "
        "(default 10)",
    )
    p.add_argument(
        "--drift-threshold", type=float, default=0.25, metavar="X",
        help="worst per-node relative deviation (observed vs predicted "
        "iteration time) that triggers a new adaptation round "
        "(default 0.25)",
    )
    _add_common(p)
    _add_dynamics(p)
    _add_telemetry(p)

    p = sub.add_parser("accuracy", help="one Figure-9 panel")
    p.add_argument(
        "--panel",
        choices=("all", "jacobi-prefetch", "rna", "cg"),
        default="all",
    )
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--chart", action="store_true", help="ASCII chart too")
    _add_common(p, config=False)
    _add_jobs(p, cache=True)

    p = sub.add_parser("timing", help="model evaluation cost (paper: ~5.4 ms)")

    p = sub.add_parser("spreads", help="best-vs-worst distribution spreads")
    p.add_argument("--steps", type=int, default=2)
    _add_common(p, config=False)
    _add_jobs(p)

    p = sub.add_parser("ablation", help="error-source ablation (CG on IO)")
    p.add_argument("--steps", type=int, default=2)
    _add_common(p, config=False)

    p = sub.add_parser("robustness", help="non-dedicated environment study")
    _add_common(p, config=False)

    p = sub.add_parser(
        "stats",
        help="instrumented seed run: phase breakdown + full telemetry",
    )
    p.add_argument("app", nargs="?", default="jacobi", choices=APPLICATIONS)
    p.add_argument("--dist", default="blk", help=f"one of {tuple(ANCHORS)}")
    p.add_argument("--budget", type=int, default=40,
                   help="search budget for the searcher-counter section")
    _add_common(p)
    _add_telemetry(p)

    p = sub.add_parser(
        "serve",
        help="run the always-on distribution-advisor service",
    )
    _add_endpoint(p)
    p.add_argument(
        "--window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batch gather window: concurrent queries arriving "
        "within it share one vectorized model pass (default 2 ms)",
    )
    p.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="distinct queries per shared pass before an early flush",
    )
    p.add_argument(
        "--model-cache", type=int, default=16, metavar="N",
        help="resident (app, config, scale) models kept warm",
    )
    p.add_argument(
        "--run-cache", default=None, metavar="PATH",
        help="on-disk RunCache tier for the emulation results behind "
        "verify queries, shared by a fleet of server processes "
        "(merge-on-save, atomic writes)",
    )
    p.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="exit after handling N requests (smoke tests / CI)",
    )
    _add_jobs(p)
    _add_telemetry(p)

    p = sub.add_parser(
        "query",
        help="query a running `repro serve` instance",
    )
    p.add_argument("op", choices=OPS)
    p.add_argument("app", nargs="?", choices=APPLICATIONS)
    p.add_argument("--dist", default=None, help=f"one of {tuple(ANCHORS)}")
    p.add_argument(
        "--counts", default=None, metavar="N,N,...",
        help="explicit GEN_BLOCK row counts (overrides --dist)",
    )
    p.add_argument(
        "--config", default="HY1",
        help=f"configuration {tuple(TABLE1_CONFIGS)}",
    )
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--algorithm", choices=SEARCHERS, default="gbs")
    p.add_argument("--budget", type=int, default=150)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument(
        "--dynamics", choices=DYNAMICS_SCENARIOS, default=None,
        help="verify under a named dynamics scenario (verify op only)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the raw result JSON"
    )
    _add_endpoint(p)

    return parser


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind/connect address"
    )
    parser.add_argument(
        "--port", type=int, default=7421,
        help="TCP port (serve: 0 picks a free one)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix-domain socket path (overrides --host/--port)",
    )


def _cmd_sweep(args) -> str:
    cluster = _cluster(args.config)
    program = _program(args.app, args.scale, args.prefetch)
    cache = _sweep_cache(args)
    rec = _telemetry_recorder(args)
    run = run_spectrum(
        cluster,
        program,
        steps_per_leg=args.steps,
        jobs=args.jobs,
        cache=cache,
        telemetry=rec,
    )
    if cache is not None:
        cache.save()
    from repro.util.tables import render_table

    rows = [
        [p.label, p.actual_seconds, p.predicted_seconds, p.error_percent]
        for p in run.points
    ]
    table = render_table(
        ["distribution", "actual (s)", "predicted (s)", "error %"],
        rows,
        float_fmt=".3f",
        title=(
            f"{program.name} on {cluster.name}: mean error "
            f"{run.mean_error_percent:.2f}%, spread {run.spread:.2f}x, "
            f"best {run.best_actual.label!r}"
        ),
    )
    if getattr(args, "chart", False):
        table = table + "\n\n" + run.chart()
    return _with_telemetry(table, rec, args)


def _cmd_instrument(args) -> str:
    from repro.instrument import collect_inputs

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    inputs = collect_inputs(
        cluster, program, block(cluster, program.n_rows)
    )
    inputs.save(args.output)
    return (
        f"wrote internal MHETA file for {program.name!r} "
        f"({cluster.name}, Blk-instrumented) to {args.output}"
    )


def _cmd_analyse(args) -> str:
    from repro.sim import ClusterEmulator, analyse_run
    from repro.sim.trace import TraceCollector

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    distribution = anchor_distribution(args.dist.lower(), cluster, program)
    trace = TraceCollector()
    result = ClusterEmulator(cluster, program).run(
        distribution, observer=trace
    )
    return analyse_run(trace, result).describe()


# -- 2-D subpaths --------------------------------------------------------------


def _parse_grid(text: str, n_nodes: int):
    try:
        r, c = (int(x) for x in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"--twod expects RxC (e.g. 2x4), got {text!r}")
    if r < 1 or c < 1 or r * c != n_nodes:
        raise SystemExit(
            f"grid {r}x{c} does not cover the cluster's {n_nodes} nodes"
        )
    return r, c


def _parse_bands(text: str, label: str, count: int, total: int):
    try:
        bands = [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(f"--{label} expects comma-separated integers")
    if len(bands) != count:
        raise SystemExit(f"--{label} needs {count} bands, got {len(bands)}")
    if sum(bands) != total or min(bands) < 1:
        raise SystemExit(
            f"--{label} bands must be >= 1 and sum to {total}"
        )
    return bands


def _twod_model(args, cluster, program, shape):
    """Build the 2-D Jacobi model matching the 1-D program's scale."""
    from repro.twod import Jacobi2DSpec, block2d, build_2d_model

    if args.app != "jacobi":
        raise SystemExit("--twod supports only the jacobi application")
    side = program.n_rows
    spec = Jacobi2DSpec(
        n_rows=side, n_cols=side, iterations=program.iterations
    )
    d0 = block2d(spec.n_rows, spec.n_cols, shape)
    return build_2d_model(cluster, spec, d0), spec


def _cmd_predict_twod(args, cluster, program) -> str:
    from repro.twod import GenBlock2D, TwoDEmulator, balanced2d, block2d

    shape = _parse_grid(args.twod, cluster.n_nodes)
    model, spec = _twod_model(args, cluster, program, shape)
    if args.rows or args.cols:
        rows = (
            _parse_bands(args.rows, "rows", shape[0], spec.n_rows)
            if args.rows
            else block2d(spec.n_rows, spec.n_cols, shape).row_counts
        )
        cols = (
            _parse_bands(args.cols, "cols", shape[1], spec.n_cols)
            if args.cols
            else block2d(spec.n_rows, spec.n_cols, shape).col_counts
        )
        dist = GenBlock2D(rows, cols)
    elif args.dist.lower() == "bal":
        dist = balanced2d(cluster, spec.n_rows, spec.n_cols, shape)
    elif args.dist.lower() == "blk":
        dist = block2d(spec.n_rows, spec.n_cols, shape)
    else:
        raise SystemExit("2-D anchors are blk and bal")
    rec = _telemetry_recorder(args)
    report = model.predict(dist, report=True, telemetry=rec)
    out = [
        f"jacobi-2d on {args.config} ({shape[0]}x{shape[1]} grid, "
        f"{spec.n_rows}x{spec.n_cols} array)",
        f"rows={list(dist.row_counts)} cols={list(dist.col_counts)}",
        f"predicted: {report.total_seconds:.3f}s",
    ]
    for node in report.nodes:
        out.append(
            f"  rank {node.rank} @ {node.grid_coords} "
            f"tile {node.tile[0]}x{node.tile[1]}: "
            f"{node.total_seconds:.3f}s"
        )
    if args.verify:
        actual = TwoDEmulator(cluster, spec).run(dist, telemetry=rec)
        error = percent_difference(actual, report.total_seconds)
        out.append(f"actual: {actual:.3f}s -> error {error:.2f}%")
    return _with_telemetry("\n".join(out), rec, args)


def _cmd_search_twod(args, cluster, program) -> str:
    from repro.twod import TwoDEmulator, TwoDLayoutSearch, factor_pairs

    if args.twod.lower() == "all":
        shapes = None
        d0_shape = sorted(
            factor_pairs(cluster.n_nodes), key=lambda s: abs(s[0] - s[1])
        )[0]
    else:
        shapes = [_parse_grid(args.twod, cluster.n_nodes)]
        d0_shape = shapes[0]
    model, spec = _twod_model(args, cluster, program, d0_shape)
    rec = _telemetry_recorder(args)
    names = list(SEARCHERS) if args.algorithm == "all" else [args.algorithm]
    out = []
    for name in names:
        result = TwoDLayoutSearch(
            model,
            algorithm=name,
            shapes=shapes,
            batch_size=args.batch_size,
        ).search(args.budget, telemetry=rec)
        out.append(str(result))
        for shape, value in sorted(result.per_shape.items()):
            marker = " <-" if shape == result.best.grid_shape else ""
            # A shape the budget ran out on before it was searched is inf.
            shown = f"{value:.3f}s" if value < float("inf") else "not searched"
            out.append(f"  {shape[0]}x{shape[1]}: {shown}{marker}")
        if args.verify:
            actual = TwoDEmulator(cluster, spec).run(
                result.best, telemetry=rec
            )
            out.append(
                f"  emulator verifies {actual:.3f}s "
                f"(predicted {result.predicted_seconds:.3f}s)"
            )
    return _with_telemetry("\n".join(out), rec, args)


def _cmd_predict(args) -> str:
    from repro.core import MhetaModel
    from repro.instrument import MhetaInputs

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    if args.twod:
        return _cmd_predict_twod(args, cluster, program)
    if args.inputs:
        model = MhetaModel(program, cluster, MhetaInputs.load(args.inputs))
    else:
        model = build_model(cluster, program)
    distribution = anchor_distribution(args.dist.lower(), cluster, program)
    rec = _telemetry_recorder(args)
    report = model.predict(distribution, report=True, telemetry=rec)
    out = [report.describe()]
    if args.verify:
        from repro.sim import emulate

        actual = emulate(cluster, program, distribution, telemetry=rec)
        error = percent_difference(
            actual.total_seconds, report.total_seconds
        )
        out.append(
            f"actual: {actual.total_seconds:.3f}s -> error {error:.2f}%"
        )
    return _with_telemetry("\n".join(out), rec, args)


def _cmd_search(args) -> str:
    from repro.parallel import verify_distributions

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    if args.twod:
        return _cmd_search_twod(args, cluster, program)
    model = build_model(cluster, program)
    rec = _telemetry_recorder(args)
    names = list(SEARCHERS) if args.algorithm == "all" else [args.algorithm]
    results = [
        SEARCHERS[n](
            model, cluster, batch_size=args.batch_size
        ).search(budget=args.budget, telemetry=rec)
        for n in names
    ]
    blk = model.predict(block(cluster, program.n_rows), telemetry=rec)
    out = []
    for result in results:
        out.append(
            f"{result}\n"
            f"Blk predicts {blk:.3f}s -> "
            f"{(1 - result.predicted_seconds / blk) * 100:.1f}% improvement"
        )
    if args.verify:
        actuals = verify_distributions(
            cluster,
            program,
            [r.best for r in results],
            jobs=args.jobs,
            telemetry=rec,
        )
        for result, actual in zip(results, actuals):
            out.append(
                f"{result.algorithm}: emulator verifies {actual:.3f}s "
                f"(predicted {result.predicted_seconds:.3f}s)"
            )
    return _with_telemetry("\n".join(out), rec, args)


def _cmd_emulate(args) -> str:
    from repro.sim.executor import emulate

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale, args.prefetch)
    dist = anchor_distribution(args.dist.lower(), cluster, program)
    dynamics = _dynamics_spec(args, cluster)
    rec = _telemetry_recorder(args)
    result = emulate(
        cluster,
        program,
        dist,
        iterations=args.iterations,
        io_mode=args.io_mode,
        dynamics=dynamics,
        telemetry=rec,
    )
    out = [
        f"app {args.app!r} on {cluster.name}"
        + (f" (dynamics: {dynamics.name or 'custom'})" if dynamics else ""),
        f"  distribution : {list(dist.counts)}",
        f"  iterations   : {result.iterations}",
        f"  total        : {result.total_seconds:.6f} s",
        "  per node     : "
        + ", ".join(f"{s:.3f}" for s in result.per_node_seconds),
    ]
    return _with_telemetry("\n".join(out), rec, args)


def _cmd_adaptive(args) -> str:
    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    dynamics = _dynamics_spec(args, cluster)
    rec = _telemetry_recorder(args)
    runtime = AdaptiveRuntime(
        cluster,
        program,
        dynamics=dynamics,
        check_interval=args.check_interval,
        drift_threshold=args.drift_threshold,
    )
    return _with_telemetry(runtime.run(telemetry=rec).describe(), rec, args)


def _cmd_stats(args) -> str:
    """One instrumented seed run exercising the whole telemetry surface:
    a reported prediction (phase breakdown), two identical emulations
    (run-cache miss then hit), and a small search (searcher counters)."""
    from repro.sim import emulate

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale)
    distribution = anchor_distribution(args.dist.lower(), cluster, program)
    rec = Recorder()

    model = build_model(cluster, program)
    report = model.predict(distribution, report=True, telemetry=rec)

    # Emulate twice: first call misses the run cache, second hits it.
    emulate(cluster, program, distribution, telemetry=rec)
    actual = emulate(cluster, program, distribution, telemetry=rec)

    search = GeneralizedBinarySearch(model, cluster)
    result = search.search(budget=args.budget, telemetry=rec)

    phases = {
        name.rsplit("/", 1)[-1]: value
        for name, value in rec.gauges.items()
        if name.startswith("model/phase/") and name.count("/") == 2
    }
    total = report.total_seconds
    lines = [
        f"{program.name} on {cluster.name}, {args.dist} distribution",
        f"predicted {total:.6f}s, emulated {actual.total_seconds:.6f}s",
        "",
        "phase breakdown (bottleneck node, whole run):",
    ]
    phase_keys = ("comp", "io_sync", "io_prefetch", "comm_overhead", "blocked")
    for key in phase_keys:
        if key in phases:
            lines.append(f"  {key:<14s} {phases[key]:.9f}s")
    phase_sum = sum(phases.get(k, 0.0) for k in phase_keys)
    lines.append(
        f"  {'sum':<14s} {phase_sum:.9f}s "
        f"(predicted total {total:.9f}s, |diff| {abs(phase_sum - total):.2e})"
    )
    lines += [
        "",
        f"search: {result.algorithm} best {result.predicted_seconds:.6f}s "
        f"in {result.evaluations} evaluations",
    ]

    def _fmt_cache(stats: dict) -> str:
        return "  ".join(
            f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(stats.items())
        )

    from repro.core.plan import plan_cache_stats
    from repro.parallel import default_run_cache

    lines += [
        "",
        "cache tiers:",
        f"  run cache   {_fmt_cache(default_run_cache().stats)}",
        f"  plan cache  {_fmt_cache(plan_cache_stats())}",
        "",
        _render_telemetry(rec, args),
    ]
    return "\n".join(lines)


def _cmd_verify(args) -> str:
    """Batched ground-truth emulation of a population of candidates."""
    from repro.distribution import GenBlock
    from repro.parallel import verify_distributions

    cluster = _cluster(args.config)
    program = _program(args.app, args.scale, args.prefetch)
    dists, labels = [], []
    for name in [n.lower() for n in args.dist.split(",") if n]:
        dists.append(anchor_distribution(name, cluster, program))
        labels.append(name)
    for spec in args.counts or []:
        counts = _parse_counts(spec)
        if len(counts) != len(cluster.nodes):
            raise SystemExit(
                f"--counts needs {len(cluster.nodes)} entries for "
                f"{args.config}, got {len(counts)}"
            )
        if sum(counts) != program.n_rows:
            raise SystemExit(
                f"--counts must sum to the program's {program.n_rows} rows "
                f"at scale {args.scale}, got {sum(counts)}"
            )
        dists.append(GenBlock(counts))
        labels.append("counts")
    if not dists:
        raise SystemExit("no distributions to verify")

    store = None
    if args.run_cache:
        from repro.parallel.cache import RunCache

        store = RunCache(path=args.run_cache)
    rec = _telemetry_recorder(args)
    seconds = verify_distributions(
        cluster, program, dists,
        jobs=args.jobs, run_cache=store, telemetry=rec,
    )
    if store is not None:
        store.save()

    width = max(len(label) for label in labels)
    lines = [
        f"verify {args.app} on {args.config} "
        f"(scale {args.scale}, {len(dists)} candidates)"
    ]
    for label, d, actual in zip(labels, dists, seconds):
        lines.append(
            f"  {label:<{width}s}  {actual:12.6f}s  {list(d.counts)}"
        )
    return _with_telemetry("\n".join(lines), rec, args)


def _cmd_serve(args) -> str:
    """Run the advisor service until a ``shutdown`` query (or
    ``--max-requests``) stops it; returns the final telemetry dump."""
    import asyncio

    from repro.serve import ServeCoordinator

    rec = Recorder()
    run_cache = None
    if getattr(args, "run_cache", None):
        from repro.parallel.cache import RunCache

        run_cache = RunCache(path=args.run_cache)
    coordinator = ServeCoordinator(
        window_seconds=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        jobs=args.jobs,
        run_cache=run_cache,
        model_cache_entries=args.model_cache,
        telemetry=rec,
    )

    async def _run() -> None:
        handle = await coordinator.start(
            host=args.host, port=args.port, socket_path=args.socket
        )
        print(f"repro serve: listening on {handle.address}", flush=True)
        if args.max_requests is not None:

            async def _watch() -> None:
                while coordinator.requests_handled < args.max_requests:
                    await asyncio.sleep(0.01)
                coordinator.request_shutdown()

            watcher = asyncio.ensure_future(_watch())
            try:
                await handle.serve_until_shutdown()
            finally:
                watcher.cancel()
        else:
            await handle.serve_until_shutdown()

    asyncio.run(_run())
    out = (
        f"repro serve: stopped after "
        f"{coordinator.requests_handled} requests"
    )
    return _with_telemetry(out, rec if args.telemetry else None, args)


def _cmd_query(args) -> str:
    import json as _json

    from repro.serve import ServeClient

    payload = {"op": args.op}
    if args.op in ("predict", "search", "verify"):
        if not args.app:
            raise SystemExit(
                f"op {args.op!r} requires an app {tuple(APPLICATIONS)}"
            )
        payload.update(
            app=args.app, config=args.config.upper(), scale=args.scale
        )
        if args.op == "search":
            payload.update(
                algorithm=args.algorithm,
                budget=args.budget,
                batch_size=args.batch_size,
            )
        elif args.counts is not None:
            payload["counts"] = list(_parse_counts(args.counts))
        else:
            payload["dist"] = args.dist or "blk"
        if getattr(args, "dynamics", None) is not None:
            payload["dynamics"] = args.dynamics
    # A server that cannot be reached or answers ``ok: false`` ends the
    # query with one line, like the other usage errors.
    where = args.socket or f"{args.host}:{args.port}"
    try:
        client = ServeClient(
            host=args.host, port=args.port, socket_path=args.socket
        )
    except OSError as exc:
        raise SystemExit(f"cannot reach repro serve at {where}: {exc}") from None
    try:
        result = client.request(payload)
    except ServeError as exc:
        raise SystemExit(f"query {args.op!r} failed: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"lost repro serve at {where}: {exc}") from None
    finally:
        client.close()
    if args.json:
        return _json.dumps(result, indent=2, sort_keys=True)
    if args.op == "ping":
        return f"pong (protocol v{result['version']})"
    if args.op == "shutdown":
        return "server stopping"
    if args.op == "stats":
        return _json.dumps(result, indent=2, sort_keys=True)
    lines = [
        f"{result['app']} on {result['config']}: "
        f"predicted {result['predicted_seconds']:.6f}s"
    ]
    if args.op == "search":
        lines.append(
            f"{result['algorithm']}: best {result['counts']} after "
            f"{result['evaluations']} evaluations "
            f"({result['cache_hits']} cache hits)"
        )
    else:
        lines.append(f"counts: {result['counts']}")
    if "actual_seconds" in result:
        lines.append(
            f"actual (emulated): {result['actual_seconds']:.6f}s -> "
            f"error {result['error_percent']:.2f}%"
        )
    return "\n".join(lines)


def _cmd_accuracy(args) -> str:
    cache = _sweep_cache(args)
    bands = fig9_accuracy(
        panel=args.panel,
        scale=args.scale,
        steps_per_leg=args.steps,
        jobs=args.jobs,
        cache=cache,
    )
    if cache is not None:
        cache.save()
    if args.chart:
        return bands.describe() + "\n\n" + bands.chart()
    return bands.describe()


#: Each subcommand's handler: parsed arguments -> the text to print.
_COMMANDS = {
    "table1": lambda args: table1(),
    "sweep": _cmd_sweep,
    "predict": _cmd_predict,
    "instrument": _cmd_instrument,
    "analyse": _cmd_analyse,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "emulate": _cmd_emulate,
    "adaptive": _cmd_adaptive,
    "accuracy": _cmd_accuracy,
    "timing": lambda args: model_evaluation_timing().describe(),
    "spreads": lambda args: distribution_spread(
        steps_per_leg=args.steps, scale=args.scale, jobs=args.jobs
    ).describe(),
    "ablation": lambda args: error_ablation(
        steps_per_leg=args.steps, scale=args.scale
    ).describe(),
    "robustness": lambda args: dedicated_assumption_study(
        scale=args.scale
    ).describe(),
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "query": _cmd_query,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(_COMMANDS[args.command](args))
    except DistributionError as exc:
        # An unknown --dist anchor ends the run with its message, like
        # the other usage errors.
        raise SystemExit(str(exc)) from None
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
