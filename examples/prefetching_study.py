#!/usr/bin/env python
"""Prefetching study: Jacobi with and without one-block-ahead reads.

Reproduces the paper's prefetching angle (Figure 9 top-right): the
unrolled loop of Figure 6 hides part of each ICLA read latency behind
the previous block's computation, and MHETA's Equation 2 predicts the
resulting times.  For each memory-pressured configuration this example
reports synchronous vs prefetching execution times and MHETA's accuracy
on both.

Run time: a few seconds.
"""

import argparse

from repro import (
    ClusterEmulator,
    JacobiApp,
    build_model,
    config_hy1,
    config_io,
    spectrum,
)
from repro.util.tables import render_table


def sweep(cluster, program):
    """(label, actual, predicted) per spectrum point."""
    model = build_model(cluster, program)
    emulator = ClusterEmulator(cluster, program)
    out = []
    for point in spectrum(cluster, program, steps_per_leg=2):
        actual = emulator.run(point.distribution).total_seconds
        predicted = model.predict(point.distribution)
        out.append((point.label, actual, predicted))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="paper-scale problem size"
    )
    args = parser.parse_args()
    scale = 1.0 if args.full else 0.1

    app = JacobiApp.paper(scale)
    for cluster in (config_io(), config_hy1()):
        sync = sweep(cluster, app.structure)
        prefetch = sweep(cluster, app.prefetching())
        rows = []
        for (label, a_sync, p_sync), (_, a_pf, p_pf) in zip(sync, prefetch):
            saving = (1.0 - a_pf / a_sync) * 100.0 if a_sync else 0.0
            err = abs(p_pf - a_pf) / min(p_pf, a_pf) * 100.0
            rows.append([label, a_sync, a_pf, saving, p_pf, err])
        print(
            render_table(
                [
                    "distribution",
                    "sync (s)",
                    "prefetch (s)",
                    "saved %",
                    "Eq.2 pred (s)",
                    "err %",
                ],
                rows,
                float_fmt=".2f",
                title=f"Jacobi prefetching on {cluster.name}",
            )
        )
        print()
    print(
        "Prefetching helps where I/O and computation genuinely overlap; "
        "where computation is tiny relative to reads, the issue overhead "
        "makes it a wash — both outcomes predicted by Equation 2."
    )


if __name__ == "__main__":
    main()
