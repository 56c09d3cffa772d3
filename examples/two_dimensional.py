#!/usr/bin/env python
"""2-D distributions: the extension the paper describes and declines.

Paper Section 5.1: "The MHETA model extends to two-dimensional data
distributions, but such distributions are problematic for run-time data
distribution systems because the search space increases greatly."

This example demonstrates both halves:

1. the 2-D model working — predicted vs actual for 2-D Jacobi layouts on
   a heterogeneous cluster, including the case where a 2x4 grid beats
   8x1 strips because square-ish tiles halve the halo traffic;
2. the search-space explosion that justified the paper's 1-D focus —
   and the batched 2-D kernel that pays for it, driving
   a full layout search over every grid shape.

Run time: a few seconds (``--full`` for the paper-scale grid).
"""

import argparse

from repro.cluster import ClusterSpec, baseline_cluster, config_dc
from repro.twod import (
    Jacobi2DSpec,
    TwoDEmulator,
    TwoDGbs,
    balanced2d,
    block2d,
    build_2d_model,
    factor_pairs,
    search_space_growth,
)
from repro.util.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    n = 8192 if args.full else 2048
    iters = 100 if args.full else 10

    # -- 1a: the model tracks reality across grid shapes -------------------
    cluster = config_dc()
    spec = Jacobi2DSpec(n_rows=n, n_cols=n, iterations=iters)
    rows = []
    # One model serves every grid shape: the calibration is a per-element
    # compute rate, which transfers across shapes.
    model = build_2d_model(
        cluster, spec, block2d(spec.n_rows, spec.n_cols, (2, 4))
    )
    emulator = TwoDEmulator(cluster, spec)
    for shape in factor_pairs(cluster.n_nodes):
        for label, dist in (
            ("Blk", block2d(spec.n_rows, spec.n_cols, shape)),
            ("Bal", balanced2d(cluster, spec.n_rows, spec.n_cols, shape)),
        ):
            actual = emulator.run(dist)
            predicted = model.predict(dist)
            err = abs(predicted - actual) / min(predicted, actual) * 100
            rows.append(
                [f"{shape[0]}x{shape[1]}", label, actual, predicted, err]
            )
    print(
        render_table(
            ["grid", "layout", "actual (s)", "predicted (s)", "error %"],
            rows,
            float_fmt=".2f",
            title=f"2-D Jacobi on DC ({n}x{n} doubles): MHETA over GenBlock2D",
        )
    )
    best = min(rows, key=lambda r: r[2])
    print(
        f"\nBest layout: {best[0]} {best[1]} — for CPU-only heterogeneity "
        "the winning grids are the ones whose row/column power sums match "
        "DC's power layout; shapes that split the heterogeneity across "
        "both axes (like 2x4 here) balance worse, because a rectangular "
        "grid cannot realise arbitrary per-node areas.\n"
    )

    # -- 1b: where 2-D genuinely wins ------------------------------------
    base = baseline_cluster(name="homog")
    slow_net = ClusterSpec(
        name=base.name,
        nodes=base.nodes,
        network=base.network.with_(latency_per_byte=2e-7),
    )
    comm_spec = Jacobi2DSpec(
        n_rows=n, n_cols=n, iterations=iters, work_per_element=2e-9
    )
    emulator = TwoDEmulator(slow_net, comm_spec)
    strips = emulator.run(block2d(n, n, (8, 1)))
    grid = emulator.run(block2d(n, n, (2, 4)))
    print(
        f"Communication-bound stencil on a homogeneous cluster: 8x1 strips "
        f"{strips:.2f}s vs 2x4 grid {grid:.2f}s "
        f"({(1 - grid / strips) * 100:.0f}% faster) — the classic "
        "halo-perimeter argument, visible in the emulator.\n"
    )

    # -- 2: why the paper stayed 1-D --------------------------------------
    print(search_space_growth().describe())

    # -- 3: ...and the batched kernel that pays for it --------------------
    search_model = build_2d_model(cluster, spec, block2d(n, n, (2, 4)))
    result = TwoDGbs(search_model).search(budget=400)
    print(
        f"\nBatched 2-D search over all grid shapes ({result.evaluations} "
        f"evaluations through the batched kernel):\n  {result}"
    )
    for shape, value in sorted(result.per_shape.items()):
        marker = " <-" if shape == result.best.grid_shape else ""
        print(f"  {shape[0]}x{shape[1]}: {value:.2f}s{marker}")


if __name__ == "__main__":
    main()
