"""The distribution spectrum of paper Figure 8 / Section 5.1.

The evaluation sweeps candidate distributions along the closed path

    Blk -> I-C -> I-C/Bal -> Bal -> Blk

with interpolated points on every leg.  Two degenerate cases match the
paper exactly:

* all nodes have equal relative CPU power (``Blk`` already balances the
  load) -> sweep only Blk -> I-C;
* no node has a memory restriction for this program (I/O is not a
  concern) -> sweep only Blk -> Bal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.distribution.factories import (
    balanced,
    block,
    in_core,
    in_core_balanced,
    in_core_capacity_rows,
)
from repro.distribution.genblock import GenBlock
from repro.exceptions import DistributionError
from repro.program.structure import ProgramStructure

__all__ = [
    "SpectrumPoint",
    "interpolate",
    "interpolate_many",
    "interpolation_grid",
    "spectrum",
    "has_memory_pressure",
]


@dataclass(frozen=True)
class SpectrumPoint:
    """One x-axis point of the paper's figures."""

    label: str  #: e.g. ``"Blk"``, ``"I-C"``, or ``"Blk>I-C 2/4"``
    anchor: str  #: nearest *preceding* anchor name (``"Blk"``, ...)
    position: float  #: 0..1 arc-length style coordinate along the path
    distribution: GenBlock


def interpolation_grid(
    a: GenBlock, b: GenBlock, alphas: Sequence[float]
) -> np.ndarray:
    """Blend two distributions at every ``alpha`` in one numpy pass:
    row ``k`` of the ``(len(alphas), P)`` int64 result is
    ``(1-alphas[k])*a + alphas[k]*b`` rounded back to integer blocks with
    the exact row total preserved.

    Each row repeats :func:`largest_remainder_round`'s IEEE operations
    (``minimum=0``), so it equals that scalar rounding of the same blend
    bit for bit: scale by the row sum, floor, and hand the remainder to
    the largest fractions, ordered by a stable sort so the lower node
    wins a tie, as ``lexsort`` breaks it."""
    if a.n_nodes != b.n_nodes:
        raise DistributionError("cannot interpolate across node counts")
    if a.n_rows != b.n_rows:
        raise DistributionError("cannot interpolate across row totals")
    alphas = np.asarray(alphas, dtype=float)
    outside = ~((alphas >= 0.0) & (alphas <= 1.0))
    if outside.any():
        raise DistributionError(
            f"alpha must be in [0, 1], got {alphas[outside][0]}"
        )
    total = a.n_rows
    mix = (1.0 - alphas)[:, None] * a.counts_np + alphas[:, None] * b.counts_np
    sums = mix.sum(axis=1)
    empty = sums <= 0
    if empty.any():
        mix[empty] = 1.0
        sums = mix.sum(axis=1)
    scaled = mix / sums[:, None] * total
    floors = np.floor(scaled)
    counts = floors.astype(np.int64)
    remainder = total - counts.sum(axis=1)
    fracs = scaled - floors
    order = np.argsort(-fracs, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(a.n_nodes), axis=1)
    counts += rank < remainder[:, None]
    return counts


def interpolate_many(
    a: GenBlock, b: GenBlock, alphas: Sequence[float]
) -> List[GenBlock]:
    """:func:`interpolate` at every ``alpha``, from one
    :func:`interpolation_grid` validated once."""
    return GenBlock.from_rows(interpolation_grid(a, b, alphas), a.n_rows)


def interpolate(a: GenBlock, b: GenBlock, alpha: float) -> GenBlock:
    """Blend two distributions: ``(1-alpha)*a + alpha*b`` rounded back to
    integer blocks with the exact row total preserved."""
    return interpolate_many(a, b, [alpha])[0]


def has_memory_pressure(
    cluster: ClusterSpec, program: ProgramStructure
) -> bool:
    """True when at least one node would be out of core under either the
    Blk or the Bal distribution — i.e. I/O is a concern and the spectrum
    must include the in-core anchors."""
    cap = in_core_capacity_rows(cluster, program)
    for dist in (block(cluster, program.n_rows), balanced(cluster, program.n_rows)):
        if (dist.as_array > cap).any():
            return True
    return False


def _leg(
    start_label: str,
    a: GenBlock,
    end_label: str,
    b: GenBlock,
    steps: int,
) -> List[Tuple[str, str, GenBlock]]:
    """Points strictly after ``a`` up to and including ``b``."""
    dists = interpolate_many(a, b, np.arange(1, steps + 1) / steps)
    labels = [f"{start_label}>{end_label} {k}/{steps}" for k in range(1, steps)]
    labels.append(end_label)
    return [(label, start_label, d) for label, d in zip(labels, dists)]


def spectrum(
    cluster: ClusterSpec,
    program: ProgramStructure,
    steps_per_leg: int = 3,
    full_path: bool = False,
) -> List[SpectrumPoint]:
    """Distribution candidates along the Figure-8 path.

    ``steps_per_leg`` interpolation steps per leg (the anchors themselves
    are always included).  Degenerate architectures shrink the path as
    described in the module docstring unless ``full_path`` is set, in
    which case all five anchors are always used (for degenerate
    architectures some of them coincide — e.g. Bal equals Blk on a
    CPU-homogeneous cluster).  The accuracy sweeps use ``full_path`` so
    every architecture contributes the same x axis (paper Figure 9).
    """
    if steps_per_leg < 1:
        raise DistributionError("steps_per_leg must be >= 1")
    n_rows = program.n_rows
    blk = block(cluster, n_rows)
    bal = balanced(cluster, n_rows)
    pressure = has_memory_pressure(cluster, program)
    homogeneous = cluster.is_cpu_homogeneous

    anchors: List[Tuple[str, GenBlock]]
    if full_path or (pressure and not homogeneous):
        ic = in_core(cluster, program)
        icbal = in_core_balanced(cluster, program)
        anchors = [
            ("Blk", blk),
            ("I-C", ic),
            ("I-C/Bal", icbal),
            ("Bal", bal),
            ("Blk", blk),
        ]
    elif pressure:  # homogeneous CPUs: Blk == Bal, sweep only toward I-C
        ic = in_core(cluster, program)
        anchors = [("Blk", blk), ("I-C", ic)]
    else:  # no memory pressure: I/O is not a concern, sweep Blk..Bal
        anchors = [("Blk", blk), ("Bal", bal), ("Blk", blk)]

    points: List[Tuple[str, str, GenBlock]] = [("Blk", "Blk", blk)]
    for (la, da), (lb, db) in zip(anchors, anchors[1:]):
        points.extend(_leg(la, da, lb, db, steps_per_leg))

    total = len(points) - 1
    return [
        SpectrumPoint(
            label=label,
            anchor=anchor,
            position=(i / total if total else 0.0),
            distribution=dist,
        )
        for i, (label, anchor, dist) in enumerate(points)
    ]
