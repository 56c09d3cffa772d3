"""Bench S2 (extension): the Section-6 adaptive runtime, end to end.

The paper's closing claim is that MHETA + search + on-the-fly
redistribution "can provide an infrastructure for efficient support of
out-of-core parallel programs on heterogeneous clusters".  This bench
runs that whole protocol at paper scale on DC and HY1 and checks it
actually pays: instrumented iteration + search + redistribution +
remaining iterations beats running the whole job statically on Blk.

The dynamic-cluster payoff bench extends the claim to *non-stationary*
clusters: on a homogeneous cluster whose nodes drift mid-run (where a
one-shot adaptive start has nothing to win), the multi-round runtime
must detect the drift, re-search, and beat riding the job out statically
— with every overhead (instrumented iterations, redistribution) charged.

The committed reports leave out what includes host wall time (the
search's milliseconds, and the adaptive total, speedup and round
overheads that add it in), so a rerun reproduces them byte for byte.
"""

import re

from repro.cluster import (
    baseline_cluster,
    config_dc,
    config_hy1,
    dynamics_scenario,
)
from repro.runtime import AdaptiveRuntime
from repro.apps import JacobiApp


def _host_free(report) -> str:
    """``report.describe()`` without its host-timed figures."""
    lines = []
    for line in report.describe().splitlines():
        if line.startswith(("  adaptive total", "  speedup")):
            continue
        if line.startswith("  search "):
            line = line[:23] + f"{report.search_evaluations} MHETA evaluations"
        lines.append(re.sub(r", overhead [^,]+", "", line))
    return "\n".join(lines)


def _run(cluster):
    program = JacobiApp.paper().structure
    return AdaptiveRuntime(cluster, program).run()


def test_adaptive_runtime_dc(benchmark, save_result):
    report = benchmark.pedantic(_run, args=(config_dc(),), rounds=1, iterations=1)
    save_result("adaptive_dc", _host_free(report))
    assert report.switched
    assert report.speedup_vs_static > 1.5
    # The one-time costs stay modest against the job: instrumentation
    # (a forced-out-of-core iteration) + search + redistribution under
    # 20% of the adaptive total, and tiny against what switching saved.
    overhead = (
        report.instrumented_seconds
        + report.search_wall_seconds
        + report.redistribution_seconds
    )
    assert overhead < 0.20 * report.adaptive_seconds
    assert overhead < 0.10 * (report.static_seconds - report.adaptive_seconds)
    # MHETA's prediction of the remaining iterations is honest.
    assert abs(
        report.remaining_seconds - report.predicted_remaining_seconds
    ) / report.remaining_seconds < 0.05


def test_adaptive_runtime_hy1(benchmark, save_result):
    report = benchmark.pedantic(_run, args=(config_hy1(),), rounds=1, iterations=1)
    save_result("adaptive_hy1", _host_free(report))
    assert report.switched
    assert report.speedup_vs_static > 1.2


def _run_dynamic(scenario):
    cluster = baseline_cluster()
    program = JacobiApp.paper().structure
    spec = dynamics_scenario(scenario, cluster.n_nodes)
    runtime = AdaptiveRuntime(
        cluster, program, dynamics=spec,
        check_interval=10, drift_threshold=0.25,
    )
    return runtime.run()


def test_adaptive_payoff_under_drift(benchmark, save_result):
    """The hard gate: on a drifting cluster the multi-round adaptive
    runtime beats static execution with all overheads charged."""
    report = benchmark.pedantic(
        _run_dynamic, args=("drift",), rounds=1, iterations=1
    )

    # The cluster starts homogeneous: round 0 has nothing to win, so any
    # payoff must come from *re*-detecting the mid-run drift.
    assert report.n_rounds >= 2
    assert any(r.trigger == "drift" for r in report.rounds)
    assert report.switched
    # The payoff gate, redistribution and instrumentation included.
    assert report.adaptive_seconds < report.static_seconds
    assert report.speedup_vs_static > 1.05

    # Control arm: under the stationary scenario the multi-round
    # machinery must never fire (no drift -> exactly one round).
    control = _run_dynamic("stationary")
    assert control.n_rounds == 1
    assert control.rounds[0].trigger == "start"

    save_result("adaptive_drift", _host_free(report))
