"""The four anchor distributions of paper Figure 8.

* ``Blk``     — even split, oblivious to both load and I/O;
* ``Bal``     — balances load (rows proportional to relative CPU power),
                oblivious to I/O;
* ``I-C``     — minimises I/O (brings as much data in core as possible),
                oblivious to load;
* ``I-C/Bal`` — first maximises the number of nodes whose data sets are
                exclusively in core, then balances load as much as
                possible within that constraint.

All factories give every node at least one row: unlike AppLeS, the
paper's system never excludes a small-memory processor outright
(Section 2.2).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import GenBlock, largest_remainder_round
from repro.exceptions import DistributionError
from repro.program.structure import ProgramStructure

__all__ = [
    "ANCHORS",
    "anchor_distribution",
    "block",
    "balanced",
    "in_core",
    "in_core_balanced",
    "in_core_capacity_rows",
]


def block(cluster: ClusterSpec, n_rows: int) -> GenBlock:
    """``Blk``: allocate rows evenly across nodes."""
    shares = np.ones(cluster.n_nodes)
    return GenBlock(largest_remainder_round(shares, n_rows, minimum=1))


def balanced(cluster: ClusterSpec, n_rows: int) -> GenBlock:
    """``Bal``: rows proportional to relative CPU power."""
    return GenBlock(
        largest_remainder_round(cluster.cpu_powers, n_rows, minimum=1)
    )


#: Headroom the I/O-aware distribution factories leave below the nominal
#: in-core capacity: 3% of memory, but at least 4 MiB.  The runtime that
#: generates candidate distributions knows it needs some memory for
#: buffers, so "in-core" anchor distributions are genuinely in core
#: rather than sitting exactly on the boundary.  MHETA's oracle, in
#: contrast, uses the nominal capacity — that optimism is limitation 2 of
#: paper Section 5.4.
CAPACITY_SAFETY_FRACTION = 0.03
CAPACITY_SAFETY_MIN_BYTES = 4 * 1024 * 1024


def in_core_capacity_rows(
    cluster: ClusterSpec,
    program: ProgramStructure,
    safety: bool = True,
) -> np.ndarray:
    """Rows each node can hold fully in core for *all* distributed
    variables simultaneously, after reserving room for replicated data.

    With ``safety`` (the default, used by the distribution factories) a
    headroom of ``max(3% of memory, 4 MiB)`` is subtracted; pass
    ``safety=False`` for the nominal, model-view capacity.
    """
    row_bytes = program.distributed_row_bytes()
    if row_bytes <= 0:
        # No distributed data: capacity is unbounded for any practical N.
        return np.full(cluster.n_nodes, np.iinfo(np.int64).max // 2)
    replicated = program.replicated_bytes
    memory = cluster.memory_bytes.astype(float)
    if safety:
        headroom = np.maximum(
            memory * CAPACITY_SAFETY_FRACTION, CAPACITY_SAFETY_MIN_BYTES
        )
        memory = memory - headroom
    avail = np.maximum(memory - replicated, 0)
    return (avail / row_bytes).astype(np.int64)


def _io_cheapness(cluster: ClusterSpec, program: ProgramStructure) -> np.ndarray:
    """Relative cheapness of streaming one row from each node's disk
    (higher = cheaper).  Used to place unavoidable out-of-core rows."""
    row_bytes = max(program.distributed_row_bytes(), 1.0)
    costs = np.array(
        [
            row_bytes / n.disk_read_bw
            + (row_bytes / n.disk_write_bw if _any_writeback(program) else 0.0)
            for n in cluster.nodes
        ]
    )
    return 1.0 / np.maximum(costs, 1e-30)


def _any_writeback(program: ProgramStructure) -> bool:
    return any(v.writes_back for v in program.distributed_variables)


def in_core(cluster: ClusterSpec, program: ProgramStructure) -> GenBlock:
    """``I-C``: focus exclusively on minimising I/O cost.

    If the data fits in aggregate memory, assign rows proportional to
    memory capacity, capped at each node's in-core capacity so every node
    stays in core.  Otherwise fill every node to capacity and place the
    unavoidable out-of-core excess on the nodes with the cheapest disks.
    """
    n_rows = program.n_rows
    n = cluster.n_nodes
    cap = in_core_capacity_rows(cluster, program)
    cap = np.maximum(cap, 1)  # every node takes at least one row
    if int(cap.sum()) >= n_rows:
        counts = _waterfill(cap.astype(float), cap, n_rows)
    else:
        counts = cap.copy()
        excess = n_rows - int(cap.sum())
        cheap = _io_cheapness(cluster, program)
        counts = counts + largest_remainder_round(cheap, excess, minimum=0)
    counts = _enforce_minimum(counts, n_rows, minimum=1)
    if int(counts.sum()) != n_rows:
        raise DistributionError("internal error: I-C counts do not sum")
    return GenBlock(counts)


def in_core_balanced(
    cluster: ClusterSpec, program: ProgramStructure
) -> GenBlock:
    """``I-C/Bal``: first maximise the number of exclusively-in-core
    nodes, then balance load as much as possible.

    Water-filling: start from the load-balanced shares, cap every node at
    its in-core capacity, and re-balance the overflow among nodes that
    still have in-core headroom (proportionally to CPU power).  If
    aggregate capacity is insufficient, the final overflow is concentrated
    on the single most capable node so the *number* of out-of-core nodes
    stays minimal.
    """
    n_rows = program.n_rows
    cap = np.maximum(in_core_capacity_rows(cluster, program), 1)
    if int(cap.sum()) >= n_rows:
        counts = _waterfill(cluster.cpu_powers, cap, n_rows)
    else:
        counts = cap.copy()
        excess = n_rows - int(cap.sum())
        # Concentrate overflow to keep the out-of-core node count at one:
        # pick the node where the overflow hurts least (fast CPU x disk).
        merit = cluster.cpu_powers * _io_cheapness(cluster, program)
        counts[int(np.argmax(merit))] += excess
    counts = _enforce_minimum(counts, n_rows, minimum=1)
    return GenBlock(counts)


def _waterfill(
    weights: np.ndarray, cap: np.ndarray, total: int
) -> np.ndarray:
    """Distribute ``total`` units proportionally to ``weights`` subject to
    per-node ``cap``; overflow is re-distributed among uncapped nodes
    until it fits (aggregate capacity must cover ``total``)."""
    weights = np.asarray(weights, dtype=float)
    cap = np.asarray(cap, dtype=np.int64)
    if int(cap.sum()) < total:
        raise DistributionError("waterfill: aggregate capacity too small")
    n = len(weights)
    counts = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    remaining = total
    # Each pass either terminates or caps at least one node, so this loop
    # runs at most n times.
    while remaining > 0:
        w = np.where(active, weights, 0.0)
        if w.sum() <= 0:
            w = active.astype(float)
        shares = largest_remainder_round(w, remaining, minimum=0)
        headroom = cap - counts
        take = np.minimum(shares, np.where(active, headroom, 0))
        counts += take
        remaining -= int(take.sum())
        newly_capped = (counts >= cap) & active
        active &= ~newly_capped
        if remaining > 0 and not active.any():
            raise DistributionError("waterfill: no headroom left")
        if remaining > 0 and not newly_capped.any():
            # Rounding left a residue without capping anyone: hand the
            # residue to the active node with the most headroom.
            idx = int(np.argmax(np.where(active, headroom - take, -1)))
            room = int(cap[idx] - counts[idx])
            give = min(room, remaining)
            counts[idx] += give
            remaining -= give
            if counts[idx] >= cap[idx]:
                active[idx] = False
    return counts


def _enforce_minimum(
    counts: np.ndarray, total: int, minimum: int
) -> np.ndarray:
    """Raise each node to ``minimum`` rows, stealing from the largest
    blocks; preserves the total."""
    counts = counts.astype(np.int64).copy()
    if total < minimum * len(counts):
        raise DistributionError("not enough rows for the per-node minimum")
    for i in range(len(counts)):
        while counts[i] < minimum:
            donor = int(np.argmax(counts))
            if counts[donor] <= minimum:
                raise DistributionError("cannot satisfy per-node minimum")
            counts[donor] -= 1
            counts[i] += 1
    return counts


#: The four anchors by their short names, each a ``(cluster, program)
#: -> GenBlock`` factory.
ANCHORS = {
    "blk": lambda cluster, program: block(cluster, program.n_rows),
    "bal": lambda cluster, program: balanced(cluster, program.n_rows),
    "ic": in_core,
    "icbal": in_core_balanced,
}


def anchor_distribution(
    name: str, cluster: ClusterSpec, program: ProgramStructure
) -> GenBlock:
    """The anchor called ``name`` (an exact key of :data:`ANCHORS`)."""
    if name not in ANCHORS:
        raise DistributionError(
            f"unknown distribution {name!r}; choose from {tuple(ANCHORS)}"
        )
    return ANCHORS[name](cluster, program)
